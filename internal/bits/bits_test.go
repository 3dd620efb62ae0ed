package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWriterReaderRoundtrip drives the grouped Add/Carry path the encode
// loops use, with groups up to 56 bits, and reads back through Peek/Consume.
func TestWriterReaderRoundtrip(t *testing.T) {
	vals := []struct {
		v uint64
		n uint
	}{
		{0x1, 1}, {0x0, 1}, {0x5, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {0x3ffffffffffff, 50}, {0, 0}, {0x7, 3},
	}
	var w Writer64
	pending := uint(0)
	for _, x := range vals {
		if pending+x.n > 56 {
			w.Carry()
			pending = uint(w.BitsWritten()) & 7
		}
		w.Add(x.v, x.n)
		pending += x.n
	}
	var r Reader64
	r.Init(w.Flush())
	for i, x := range vals {
		r.Refill()
		want := x.v & ((1 << x.n) - 1)
		if got := r.Peek(x.n); got != want {
			t.Fatalf("read %d: got %#x want %#x", i, got, want)
		}
		r.Consume(x.n)
	}
	if r.Overrun() {
		t.Fatal("in-bounds reads reported overrun")
	}
}

func TestReaderOverrun(t *testing.T) {
	var w Writer64
	w.WriteBits(0x3, 2)
	var r Reader64
	r.Init(w.Flush())
	r.Refill()
	if got := r.ReadBits(8); got != 0x3 || r.Overrun() {
		t.Fatalf("first byte should be readable (padded): got %#x overrun=%v", got, r.Overrun())
	}
	r.Refill()
	r.ReadBits(1)
	if !r.Overrun() {
		t.Fatal("read past the end not reported as overrun")
	}
}

func TestPeekSkip(t *testing.T) {
	var w Writer64
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0110, 4)
	var r Reader64
	r.Init(w.Flush())
	r.Refill()
	if got := r.Peek(4); got != 0b1011 {
		t.Fatalf("peek: got %#b", got)
	}
	if got := r.Peek(8); got != 0b01101011 {
		t.Fatalf("peek 8: got %#b", got)
	}
	r.Consume(4)
	if got := r.Peek(4); got != 0b0110 {
		t.Fatalf("peek after consume: got %#b", got)
	}
	// Peek past the end zero-fills and does not count as consumption.
	if got := r.Peek(20); got != 0b0110 {
		t.Fatalf("peek past end: got %#b", got)
	}
	if r.Overrun() {
		t.Fatal("peek past end reported overrun")
	}
}

// TestAlignToByte checks that Flush pads to a byte boundary and that the
// next write starts a fresh byte, which readers locate by bit position.
func TestAlignToByte(t *testing.T) {
	var w Writer64
	w.WriteBits(0b101, 3)
	w.Flush()
	w.WriteBits(0xab, 8)
	data := w.Flush()
	if len(data) != 2 || data[0] != 0b101 || data[1] != 0xab {
		t.Fatalf("got %x, want 05ab", data)
	}
	var r Reader64
	r.Init(data)
	r.Refill()
	r.ReadBits(3)
	r.Consume(uint(8 - r.BitsConsumed()%8))
	if got := r.ReadBits(8); got != 0xab {
		t.Fatalf("got %#x want 0xab", got)
	}
}

func TestReverseReaderRoundtrip(t *testing.T) {
	var w Writer64
	type wv struct {
		v uint64
		n uint
	}
	vals := []wv{{0x1, 2}, {0x15, 5}, {0xabc, 12}, {0x0, 7}, {0x1ffff, 17}, {1, 1}}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	var r ReverseReader64
	if err := r.Init(w.FlushMarker()); err != nil {
		t.Fatal(err)
	}
	// Reverse order of writes.
	for i := len(vals) - 1; i >= 0; i-- {
		r.Refill()
		got := r.ReadBits(vals[i].n)
		want := vals[i].v & ((1 << vals[i].n) - 1)
		if got != want {
			t.Fatalf("reverse read %d: got %#x want %#x", i, got, want)
		}
	}
	if !r.Finished() {
		t.Fatalf("stream not fully consumed: %d bits left, overrun=%v", r.BitsRemaining(), r.Overrun())
	}
}

func TestReverseReaderEmptyAndNoMarker(t *testing.T) {
	var r ReverseReader64
	for _, data := range [][]byte{nil, {}, {0x00}, {0xff, 0x12, 0x00}} {
		if err := r.Init(data); err == nil {
			t.Fatalf("stream %x accepted without an end marker", data)
		}
	}
}

func TestReverseReaderOverrun(t *testing.T) {
	var w Writer64
	w.WriteBits(0b101, 3)
	var r ReverseReader64
	if err := r.Init(w.FlushMarker()); err != nil {
		t.Fatal(err)
	}
	if got := r.ReadBits(3); got != 0b101 || r.Overrun() {
		t.Fatalf("got %#b overrun=%v", got, r.Overrun())
	}
	if got := r.ReadBits(5); got != 0 {
		t.Fatalf("read past start got %#b, want zero fill", got)
	}
	if !r.Overrun() {
		t.Fatal("expected overrun after reading past start")
	}
}

func TestQuickForwardRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%64) + 1
		type wv struct {
			v uint64
			n uint
		}
		vals := make([]wv, n)
		var w Writer64
		for i := range vals {
			width := uint(rng.Intn(56) + 1)
			vals[i] = wv{rng.Uint64() & ((1 << width) - 1), width}
			w.WriteBits(vals[i].v, vals[i].n)
		}
		var r Reader64
		r.Init(w.Flush())
		for _, x := range vals {
			r.Refill()
			if got := r.ReadBits(x.n); got != x.v {
				return false
			}
		}
		return !r.Overrun()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReverseRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%64) + 1
		type wv struct {
			v uint64
			n uint
		}
		vals := make([]wv, n)
		var w Writer64
		for i := range vals {
			width := uint(rng.Intn(56) + 1)
			vals[i] = wv{rng.Uint64() & ((1 << width) - 1), width}
			w.WriteBits(vals[i].v, vals[i].n)
		}
		var r ReverseReader64
		if err := r.Init(w.FlushMarker()); err != nil {
			return false
		}
		for i := n - 1; i >= 0; i-- {
			r.Refill()
			if got := r.ReadBits(vals[i].n); got != vals[i].v {
				return false
			}
		}
		return r.Finished()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer64
	w.WriteBits(0xff, 8)
	w.WriteBits(0x3, 2)
	w.Reset()
	w.WriteBits(0x1, 1)
	out := w.Flush()
	if len(out) != 1 || out[0] != 0x1 {
		t.Fatalf("after reset got %v", out)
	}
	// ResetBuf appends to the caller's buffer.
	w.ResetBuf([]byte{0xee})
	w.WriteBits(0x2, 2)
	if out := w.Flush(); len(out) != 2 || out[0] != 0xee || out[1] != 0x2 {
		t.Fatalf("after ResetBuf got %x", out)
	}
}

func TestBitsWritten(t *testing.T) {
	var w Writer64
	if w.BitsWritten() != 0 {
		t.Fatal("fresh writer should report 0 bits")
	}
	w.WriteBits(0, 13)
	if got := w.BitsWritten(); got != 13 {
		t.Fatalf("got %d want 13", got)
	}
	w.Carry()
	if got := w.BitsWritten(); got != 13 {
		t.Fatalf("after carry got %d want 13", got)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	var w Writer64
	w.ResetBuf(make([]byte, 0, 1<<16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 4096; j++ {
			w.WriteBits(uint64(j), 11)
		}
		w.Flush()
	}
}

func BenchmarkReverseRead(b *testing.B) {
	var w Writer64
	for j := 0; j < 4096; j++ {
		w.WriteBits(uint64(j), 11)
	}
	data := w.FlushMarker()
	b.ReportAllocs()
	b.ResetTimer()
	var r ReverseReader64
	for i := 0; i < b.N; i++ {
		if err := r.Init(data); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4096; j += 4 {
			r.Refill()
			r.ReadBits(11)
			r.ReadBits(11)
			r.ReadBits(11)
			r.ReadBits(11)
		}
	}
}

func TestReaderReset(t *testing.T) {
	var r Reader64
	r.Init([]byte{0xff})
	r.Refill()
	if got := r.ReadBits(8); got != 0xff {
		t.Fatalf("got %#x", got)
	}
	r.Init([]byte{0x0f, 0xf0})
	r.Refill()
	if v := r.ReadBits(16); v != 0xf00f || r.Overrun() {
		t.Fatalf("after re-init v=%x overrun=%v", v, r.Overrun())
	}
}

func TestReverseReaderBitsRemaining(t *testing.T) {
	var w Writer64
	w.WriteBits(0x3ff, 10)
	var r ReverseReader64
	if err := r.Init(w.FlushMarker()); err != nil {
		t.Fatal(err)
	}
	if got := r.BitsRemaining(); got != 10 {
		t.Fatalf("remaining = %d", got)
	}
	r.ReadBits(10)
	if got := r.BitsRemaining(); got != 0 {
		t.Fatalf("remaining after read = %d", got)
	}
}

func TestSkipOverrun(t *testing.T) {
	var r Reader64
	r.Init([]byte{0x01})
	r.Refill()
	r.Consume(16)
	if !r.Overrun() {
		t.Fatal("consuming past the end not reported as overrun")
	}
}
