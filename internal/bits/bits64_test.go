package bits

import (
	"encoding/hex"
	"math/rand"
	"testing"
)

func TestWriter64ReaderRoundtrip(t *testing.T) {
	var w Writer64
	w.ResetBuf(nil)
	vals := []struct {
		v uint64
		n uint
	}{
		{0x1, 1}, {0x0, 1}, {0x5, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {0x3ffffffffffff, 50}, {0, 0}, {0x7, 3},
	}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	data := w.Flush()
	var r Reader64
	r.Init(data)
	for i, x := range vals {
		r.Refill()
		want := x.v & ((1 << x.n) - 1)
		if got := r.ReadBits(x.n); got != want {
			t.Fatalf("read %d: got %#x want %#x", i, got, want)
		}
	}
	if r.Overrun() {
		t.Fatal("in-bounds reads reported overrun")
	}
}

// TestWriter64MatchesWriter pins the byte streams for seeded random write
// sequences (unmasked values, widths 1..24). The expected bytes were
// recorded from the byte-at-a-time writer that preceded Writer64, so they
// also pin the stream format against it. Each sequence is written both
// through WriteBits and through grouped Add/Carry, with and without the
// reverse-stream end marker.
func TestWriter64MatchesWriter(t *testing.T) {
	vectors := []struct {
		seed          int64
		flush, marker string
	}{
		{1, "4f160ff03541e6fa1323751cb3abec4c6458511f", "4f160ff03541e6fa1323751cb3abec4c6458513f"},
		{2, "6f0154dc208e7b6358be1bf4691cf3e9600f", "6f0154dc208e7b6358be1bf4691cf3e9602f"},
		{3, "90047f53843a3e8d5588950623a70b", "90047f53843a3e8d5588950623a71b"},
	}
	for _, vec := range vectors {
		for _, grouped := range []bool{false, true} {
			for _, marker := range []bool{false, true} {
				rng := rand.New(rand.NewSource(vec.seed))
				var w Writer64
				pending := uint(0)
				for i := 0; i < 12; i++ {
					n := uint(rng.Intn(24) + 1)
					v := rng.Uint64()
					if !grouped {
						w.WriteBits(v, n)
						continue
					}
					if pending+n > 64 {
						w.Carry()
						pending = uint(w.BitsWritten()) & 7
					}
					w.Add(v, n)
					pending += n
				}
				want, out := vec.flush, []byte(nil)
				if marker {
					want, out = vec.marker, w.FlushMarker()
				} else {
					out = w.Flush()
				}
				if got := hex.EncodeToString(out); got != want {
					t.Errorf("seed %d grouped=%v marker=%v: got %s want %s", vec.seed, grouped, marker, got, want)
				}
			}
		}
	}
}

// TestReader64TailRefill exercises a refill landing exactly at the final
// full window and reads that span the last partial word.
func TestReader64TailRefill(t *testing.T) {
	for size := 1; size <= 24; size++ {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i + 1)
		}
		var r Reader64
		r.Init(data)
		for i, b := range data {
			r.Refill()
			if got := r.ReadBits(8); got != uint64(b) {
				t.Fatalf("size %d byte %d: got %#x want %#x", size, i, got, b)
			}
		}
		if r.Overrun() {
			t.Fatalf("size %d: spurious overrun", size)
		}
		// One read past the end: zero bits, then overrun reports.
		r.Refill()
		if got := r.ReadBits(4); got != 0 {
			t.Fatalf("size %d: read past end got %#x want 0", size, got)
		}
		if !r.Overrun() {
			t.Fatalf("size %d: overrun not reported", size)
		}
	}
}

// TestReader64AccumulatedPeeks verifies that up to 56 bits can be peeked
// and consumed between refills without losing alignment.
func TestReader64AccumulatedPeeks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var vals []uint64
	var widths []uint
	var w Writer64
	w.ResetBuf(nil)
	total := uint(0)
	for total < 2000 {
		n := uint(rng.Intn(14) + 1)
		v := rng.Uint64() & (1<<n - 1)
		vals = append(vals, v)
		widths = append(widths, n)
		w.WriteBits(v, n)
		total += n
	}
	data := w.Flush()
	var r Reader64
	r.Init(data)
	pending := uint(0)
	for i := range vals {
		if pending+widths[i] > 56 {
			r.Refill()
			pending = uint(r.BitsConsumed()) & 7
		}
		if got := r.Peek(widths[i]); got != vals[i] {
			t.Fatalf("peek %d: got %#x want %#x", i, got, vals[i])
		}
		r.Consume(widths[i])
		pending += widths[i]
	}
	if r.Overrun() {
		t.Fatal("spurious overrun")
	}
}

func TestReader64Empty(t *testing.T) {
	var r Reader64
	r.Init(nil)
	r.Refill()
	if got := r.ReadBits(17); got != 0 {
		t.Fatalf("empty stream read got %#x want 0", got)
	}
	if !r.Overrun() {
		t.Fatal("empty stream: overrun not reported after read")
	}
}

func TestReverseReader64Errors(t *testing.T) {
	var r ReverseReader64
	if err := r.Init(nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	if err := r.Init([]byte{0x12, 0x00}); err == nil {
		t.Fatal("missing end marker accepted")
	}
}

// TestReverseReader64MatchesReverseReader reads a fixed marker-terminated
// stream with mixed widths, then drains past its start. The expected values
// were recorded from the byte-at-a-time reverse reader that preceded
// ReverseReader64, including the zero-filled read past the start.
func TestReverseReader64MatchesReverseReader(t *testing.T) {
	data := []byte{0x5a, 0xc3, 0x81, 0x0f, 0xee, 0x42, 0x99, 0x17, 0xb6, 0x2d, 0x05}
	widths := []uint{7, 12, 1, 16, 9, 3, 14, 10}
	want := []uint64{0x25, 0xb6c, 0x0, 0x5e65, 0x17, 0x3, 0x20f8, 0x70}
	var r ReverseReader64
	if err := r.Init(data); err != nil {
		t.Fatal(err)
	}
	if got := r.BitsRemaining(); got != 82 {
		t.Fatalf("BitsRemaining = %d, want 82", got)
	}
	for i, n := range widths {
		r.Refill()
		if got := r.ReadBits(n); got != want[i] {
			t.Fatalf("field %d: got %#x want %#x", i, got, want[i])
		}
	}
	if r.Finished() || r.Overrun() || r.BitsRemaining() != 10 {
		t.Fatalf("Finished=%v Overrun=%v remaining=%d, want false/false/10", r.Finished(), r.Overrun(), r.BitsRemaining())
	}
	r.Refill()
	if got := r.ReadBits(13); got != 0x1ad0 {
		t.Fatalf("past-start read %#x, want 0x1ad0", got)
	}
	if !r.Overrun() {
		t.Fatal("overrun not reported")
	}
}

// TestReader64MatchesReader reads a fixed stream with widths chosen so
// refills land at every byte phase. The expected values were recorded from
// the byte-at-a-time forward reader that preceded Reader64.
func TestReader64MatchesReader(t *testing.T) {
	data := []byte{0x9c, 0x3e, 0x01, 0xf7, 0x55, 0xa0, 0x12, 0xc4, 0x6b, 0xe9, 0x00, 0x7f, 0x38, 0xd2}
	widths := []uint{3, 13, 1, 20, 7, 8, 17, 5, 11, 9, 16}
	want := []uint64{0x4, 0x7d3, 0x1, 0xafb80, 0x2, 0x2a, 0xbc41, 0xb, 0x3a, 0x1f8, 0x48e1}
	var r Reader64
	r.Init(data)
	for i, n := range widths {
		r.Refill()
		if got := r.ReadBits(n); got != want[i] {
			t.Fatalf("field %d: got %#x want %#x", i, got, want[i])
		}
	}
	if r.Overrun() {
		t.Fatal("spurious overrun")
	}
}
