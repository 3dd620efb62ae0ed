package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
)

func TestSetGetRoundtrip(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	typ := corpus.DefaultItemTypes()[0]
	items := corpus.CacheItems(1, typ, 200)
	for i, it := range items {
		if err := c.Set(fmt.Sprintf("k%d", i), typ.Name, it); err != nil {
			t.Fatal(err)
		}
	}
	for i, it := range items {
		got, ok, err := c.Get(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("item %d missing", i)
		}
		if !bytes.Equal(got, it) {
			t.Fatalf("item %d corrupted", i)
		}
	}
	st := c.Stats()
	if st.Hits != 200 || st.Sets != 200 {
		t.Fatalf("stats: %+v", st)
	}
	if st.CompressionRatio() <= 1 {
		t.Fatalf("items should compress: ratio %.2f", st.CompressionRatio())
	}
}

func TestGetMiss(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := c.Get("missing")
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d", st.Misses)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	c, _ := New(Config{})
	if err := c.Set("", "t", []byte("v")); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if _, _, err := c.Get(""); err != ErrEmptyKey {
		t.Fatalf("got %v", err)
	}
	if c.Delete("") {
		t.Fatal("deleted empty key")
	}
}

func TestDelete(t *testing.T) {
	c, _ := New(Config{})
	v := bytes.Repeat([]byte("abc"), 100)
	if err := c.Set("k", "t", v); err != nil {
		t.Fatal(err)
	}
	if !c.Delete("k") {
		t.Fatal("delete failed")
	}
	if c.Delete("k") {
		t.Fatal("double delete succeeded")
	}
	if _, ok, _ := c.Get("k"); ok {
		t.Fatal("deleted key still present")
	}
	st := c.Stats()
	if st.ResidentRawBytes != 0 || st.ResidentCompressedBytes != 0 {
		t.Fatalf("resident bytes not released: %+v", st)
	}
}

func TestOverwriteAccounting(t *testing.T) {
	c, _ := New(Config{Shards: 1})
	big := bytes.Repeat([]byte("hello world "), 200)
	small := bytes.Repeat([]byte("x"), 100)
	if err := c.Set("k", "t", big); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", "t", small); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ResidentRawBytes != int64(len(small)) {
		t.Fatalf("raw bytes = %d want %d", st.ResidentRawBytes, len(small))
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Config{Shards: 1, CapacityBytes: 4096, MinCompressSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Incompressible-ish values stored raw: 16 x 512B > 4096B capacity.
	for i := 0; i < 16; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 512)
		if err := c.Set(fmt.Sprintf("k%d", i), "t", v); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evicts == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.ResidentCompressedBytes > 4096 {
		t.Fatalf("capacity exceeded: %d", st.ResidentCompressedBytes)
	}
	// Oldest keys should be gone, newest present.
	if _, ok, _ := c.Get("k0"); ok {
		t.Fatal("oldest key survived")
	}
	if _, ok, _ := c.Get("k15"); !ok {
		t.Fatal("newest key evicted")
	}
}

// TestCapacityIsPerShard pins what CapacityBytes bounds: each shard's
// resident bytes, not the cache's total.
func TestCapacityIsPerShard(t *testing.T) {
	const shards, capacity = 4, 4096
	c, err := New(Config{Shards: shards, CapacityBytes: capacity, MinCompressSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Values stored raw: 200 x 512 B, far past every shard's capacity.
	for i := 0; i < 200; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), "t", bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range c.shards {
		if s.bytes > capacity {
			t.Errorf("shard %d holds %d bytes, over its %d-byte capacity", i, s.bytes, capacity)
		}
	}
	st := c.Stats()
	if st.Evicts == 0 {
		t.Fatal("no evictions under pressure")
	}
	if st.ResidentCompressedBytes <= capacity || st.ResidentCompressedBytes > shards*capacity {
		t.Fatalf("cache holds %d bytes, want within (%d, %d]", st.ResidentCompressedBytes, capacity, shards*capacity)
	}
}

func TestDictionaryImprovesResidentRatio(t *testing.T) {
	typ := corpus.DefaultItemTypes()[2] // edge_assoc: small items
	train := corpus.CacheItems(1, typ, 2000)
	dicts, err := TrainDictionaries(map[string][][]byte{typ.Name: train}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dicted, err := New(Config{Shards: 1, Dicts: dicts})
	if err != nil {
		t.Fatal(err)
	}
	items := corpus.CacheItems(99, typ, 500)
	for i, it := range items {
		key := fmt.Sprintf("k%d", i)
		if err := plain.Set(key, typ.Name, it); err != nil {
			t.Fatal(err)
		}
		if err := dicted.Set(key, typ.Name, it); err != nil {
			t.Fatal(err)
		}
	}
	// Verify values survive the dictionary path.
	got, ok, err := dicted.Get("k0")
	if err != nil || !ok || !bytes.Equal(got, items[0]) {
		t.Fatalf("dict get: ok=%v err=%v", ok, err)
	}
	pr := plain.Stats().CompressionRatio()
	dr := dicted.Stats().CompressionRatio()
	t.Logf("plain ratio %.2f, dict ratio %.2f", pr, dr)
	if dr <= pr {
		t.Fatalf("dictionary should improve ratio: plain %.2f dict %.2f", pr, dr)
	}
}

func TestNetworkAccounting(t *testing.T) {
	c, _ := New(Config{Shards: 1})
	v := bytes.Repeat([]byte("net bytes saved "), 64)
	if err := c.Set("k", "t", v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.NetworkBytesRaw != int64(len(v)) {
		t.Fatalf("raw net bytes = %d", st.NetworkBytesRaw)
	}
	if st.NetworkBytesCompressed >= st.NetworkBytesRaw {
		t.Fatal("compressed network bytes should be smaller")
	}
	if st.ServerCompressTime <= 0 || st.ClientDecompressTime <= 0 {
		t.Fatalf("timing not accounted: %+v", st)
	}
}

func TestTinyItemsStoredRaw(t *testing.T) {
	c, _ := New(Config{Shards: 1, MinCompressSize: 64})
	if err := c.Set("k", "t", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("k")
	if err != nil || !ok || string(got) != "tiny" {
		t.Fatalf("got=%q ok=%v err=%v", got, ok, err)
	}
	if st := c.Stats(); st.ServerCompressTime != 0 {
		t.Fatal("tiny item should skip compression")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Codec: "nope"}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := New(Config{Dicts: map[string][]byte{"t": []byte("d")}, Codec: "lz4", Level: 1}); err == nil {
		t.Fatal("dict with lz4 accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	typ := corpus.DefaultItemTypes()[0]
	items := corpus.CacheItems(7, typ, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, it := range items {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := c.Set(key, typ.Name, it); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || !bytes.Equal(got, it) {
					t.Errorf("g%d item %d: ok=%v err=%v", g, i, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 8*len(items) {
		t.Fatalf("len = %d", c.Len())
	}
}
