package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/datacomp/datacomp/internal/cache"
	"github.com/datacomp/datacomp/internal/codec"
)

const (
	cacheShards = 8
	cacheLevel  = 3
	dictBytes   = 16 << 10
	// residentShare sizes the cache to this share of the compressed
	// working set, so LRU eviction runs throughout the timed phase.
	residentShare = 0.5
	// sizingSample is how many preload values are compressed to estimate
	// the compressed working set.
	sizingSample = 1024
)

type cacheTarget struct {
	c      *cache.Cache
	keys   []string
	types  []string
	m      *model
	before cache.Stats
}

func setupCache(_ context.Context, in *inputs, _ *spans) (target, error) {
	dicts, err := cache.TrainDictionaries(in.samples, dictBytes)
	if err != nil {
		return nil, err
	}
	capacity, err := cacheCapacity(in, dicts)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(cache.Config{
		Shards: cacheShards,
		// CapacityBytes bounds each shard's resident bytes, not the whole
		// cache's, so the target is split across shards.
		CapacityBytes: capacity / cacheShards,
		Codec:         "zstd",
		Level:         cacheLevel,
		Dicts:         dicts,
	})
	if err != nil {
		return nil, err
	}
	t := &cacheTarget{c: c, types: in.keyTypes, m: newModel(in.preload)}
	t.keys = make([]string, len(in.preload))
	for k := range t.keys {
		t.keys[k] = fmt.Sprintf("item:%08d", k)
	}
	if err := preload(len(t.keys), func(k int32) error { return c.Set(t.keys[k], t.types[k], in.preload[k]) }); err != nil {
		return nil, err
	}
	return t, nil
}

// cacheCapacity estimates the compressed working set from a sample of
// preload values compressed with their type's dictionary, and returns
// residentShare of it.
func cacheCapacity(in *inputs, dicts map[string][]byte) (int64, error) {
	engines := map[string]codec.Engine{}
	for typ, d := range dicts {
		eng, err := codec.NewEngine("zstd", codec.WithLevel(cacheLevel), codec.WithDict(d))
		if err != nil {
			return 0, err
		}
		engines[typ] = eng
	}
	var raw, sampleRaw, sampleComp int64
	step := max(len(in.preload)/sizingSample, 1)
	var buf []byte
	for k, v := range in.preload {
		raw += int64(len(v))
		if k%step != 0 {
			continue
		}
		out, err := engines[in.keyTypes[k]].Compress(buf[:0], v)
		if err != nil {
			return 0, err
		}
		buf = out
		sampleRaw += int64(len(v))
		sampleComp += int64(min(len(out), len(v)))
	}
	return int64(float64(raw) * float64(sampleComp) / float64(sampleRaw) * residentShare), nil
}

func (t *cacheTarget) close() error { return nil }

func (t *cacheTarget) exec(_ context.Context, root span, o *op, r *recorder) error {
	switch o.kind {
	case opPut:
		mu := &t.m.mu[o.key]
		mu.Lock()
		defer mu.Unlock()
		sp := root.child(layerCache, "cache.set")
		t0 := time.Now()
		err := t.c.Set(t.keys[o.key], t.types[o.key], o.val)
		r.put = append(r.put, int64(time.Since(t0)))
		sp.end()
		t.m.record(o.key, o.val, err)
		if err != nil {
			return fmt.Errorf("set %s: %w", t.keys[o.key], err)
		}
		return nil
	case opGet:
		mu := &t.m.mu[o.key]
		mu.RLock()
		defer mu.RUnlock()
		sp := root.child(layerCache, "cache.get")
		t0 := time.Now()
		got, hit, err := t.c.Get(t.keys[o.key])
		r.get = append(r.get, int64(time.Since(t0)))
		sp.end()
		if err != nil {
			return fmt.Errorf("get %s: %w", t.keys[o.key], err)
		}
		return t.checkHit(o.key, got, hit)
	}
	// Batch keys are sorted and distinct, so read locks are taken in one
	// global order and a Set (which holds one lock) cannot deadlock them.
	keys := make([]string, len(o.batch))
	for i, k := range o.batch {
		t.m.mu[k].RLock()
		keys[i] = t.keys[k]
	}
	defer func() {
		for _, k := range o.batch {
			t.m.mu[k].RUnlock()
		}
	}()
	sp := root.child(layerCache, "cache.get_batch")
	vals, hits, errs := t.c.GetBatch(keys)
	sp.end()
	r.batches++
	for i, k := range o.batch {
		if errs != nil && errs[i] != nil {
			return fmt.Errorf("get batch %s: %w", keys[i], errs[i])
		}
		if err := t.checkHit(k, vals[i], hits[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkHit compares a hit byte-for-byte with the last value Set; a miss is
// an eviction, not an error.
func (t *cacheTarget) checkHit(k int32, got []byte, hit bool) error {
	if hit && !bytes.Equal(got, t.m.vals[k]) {
		return fmt.Errorf("get %s: hit of %d bytes differs from the last value set", t.keys[k], len(got))
	}
	return nil
}

func (t *cacheTarget) mark() { t.before = t.c.Stats() }

func (t *cacheTarget) finish(ops int) (layerResult, error) {
	a, b := t.before, t.c.Stats()
	hits, misses, sets := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses), float64(b.Sets-a.Sets)
	m := zeroLayerMetrics()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("cache.hit_rate", ratio(hits, hits+misses))
	set("cache.evictions_per_set", ratio(float64(b.Evicts-a.Evicts), sets))
	set("cache.compress_ns_per_set", ratio(float64(b.ServerCompressTime-a.ServerCompressTime), sets))
	set("cache.decompress_ns_per_get", ratio(float64(b.ClientDecompressTime-a.ClientDecompressTime), hits))
	set("cache.ratio", b.CompressionRatio())
	return layerResult{
		wireBytesPerOp:    ratio(float64(b.NetworkBytesCompressed-a.NetworkBytesCompressed), float64(ops)),
		storedPerUserByte: ratio(float64(b.ResidentCompressedBytes), float64(b.ResidentRawBytes)),
		metrics:           m,
	}, nil
}
