// Block framing for codec engines is internal/container: Encode is the
// parallel in-order compressor, Reader the streaming decompressor, Builder
// the sequential block writer and ReaderAt the per-block decoder. These
// tests drive that framing with the registered engines: every engine
// round-trips, the worker count never changes the bytes, and hostile
// lengths fail with ErrCorrupt before any oversized allocation.
package codec_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/container"
	"github.com/datacomp/datacomp/internal/corpus"
)

func encodeContainer(t testing.TB, data []byte, cfg container.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := container.Encode(context.Background(), &buf, bytes.NewReader(data), cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readContainer(frame []byte, opts ...container.ReaderOption) ([]byte, error) {
	r, err := container.NewReader(bytes.NewReader(frame), opts...)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// buildBlocks writes data as SplitBlocks(data, blockSize) through one
// caller-owned engine, the sequential counterpart of Encode.
func buildBlocks(t testing.TB, name string, eng codec.Engine, data []byte, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	b, err := container.NewBuilder(&buf, name, eng, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range codec.SplitBlocks(data, blockSize) {
		if err := b.AppendBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamHeader is a container header for zstd at the given block size,
// the prefix hostile block headers are appended to.
func streamHeader(blockSize int) []byte {
	h := append([]byte("ZSXS"), 1, 4)
	h = append(h, "zstd"...)
	return binary.AppendUvarint(h, uint64(blockSize))
}

func TestParallelRoundtrip(t *testing.T) {
	data := corpus.LogLines(1, 3<<20)
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		frame := encodeContainer(t, data, container.Config{Codec: "zstd", Level: 1, BlockSize: 256 << 10, Workers: workers})
		back, err := readContainer(frame, container.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("workers=%d: roundtrip mismatch", workers)
		}
		// Blocks are written in input order, so the worker count never
		// changes the bytes.
		if first == nil {
			first = frame
		} else if !bytes.Equal(frame, first) {
			t.Fatalf("workers=%d: output differs from the single-worker container", workers)
		}
	}
}

func TestParallelInteropWithSerialBlocks(t *testing.T) {
	// The parallel encoder and a sequential Builder over the same blocks
	// produce the same container, and each decodes through the other's
	// reader.
	data := corpus.Records(2, 1<<20)
	frame := encodeContainer(t, data, container.Config{Codec: "lz4", Level: 1, BlockSize: 128 << 10, Workers: 4})
	serial, err := codec.NewEngine("lz4", codec.WithLevel(1))
	if err != nil {
		t.Fatal(err)
	}
	serialFrame := buildBlocks(t, "lz4", serial, data, 128<<10)
	if !bytes.Equal(frame, serialFrame) {
		t.Fatal("parallel and sequential containers differ")
	}
	back, err := readContainer(frame, container.WithEngine(serial))
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("serial decode of parallel container: %v", err)
	}
	ra, err := container.NewReaderAt(bytes.NewReader(serialFrame), int64(len(serialFrame)))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := ra.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("random-access decode of sequential container: %v", err)
	}
}

func TestParallelEmptyAndSmall(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), corpus.LogLines(3, 1000)} {
		frame := encodeContainer(t, data, container.Config{Codec: "zstd", Level: 1, BlockSize: 64 << 10, Workers: 4})
		back, err := readContainer(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("size %d mismatch", len(data))
		}
	}
}

func TestParallelErrors(t *testing.T) {
	var sink bytes.Buffer
	if _, err := container.Encode(context.Background(), &sink, bytes.NewReader([]byte("x")),
		container.Config{Codec: "bogus"}); err == nil {
		t.Fatal("bogus codec accepted")
	}
	if _, err := readContainer(nil); err == nil {
		t.Fatal("empty container decoded")
	}
	frame := encodeContainer(t, corpus.LogLines(4, 200000), container.Config{Codec: "zstd", Level: 1, BlockSize: 64 << 10, Workers: 2})
	if _, err := readContainer(frame[:len(frame)/2]); err == nil {
		t.Fatal("truncated container decoded")
	}
}

func TestParallelDefaults(t *testing.T) {
	frame := encodeContainer(t, corpus.LogLines(5, 1000), container.Config{})
	r, err := container.NewReader(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.CodecName() != "zstd" || r.BlockSize() != container.DefaultBlockSize {
		t.Fatalf("defaults: codec %q block size %d", r.CodecName(), r.BlockSize())
	}
}

// TestParallelConcurrentUse runs many encodes and decodes at once over the
// shared engine pools — the scenario the pool and buffer recycling must
// survive. Run under -race this gates the pipeline's first-error plumbing.
func TestParallelConcurrentUse(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := corpus.LogLines(int64(g), 512<<10)
			for iter := 0; iter < 3; iter++ {
				var buf bytes.Buffer
				if _, err := container.Encode(context.Background(), &buf, bytes.NewReader(data),
					container.Config{Codec: "zstd", Level: 1, BlockSize: 32 << 10, Workers: 4}); err != nil {
					errs[g] = err
					return
				}
				back, err := readContainer(buf.Bytes(), container.WithWorkers(4))
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(back, data) {
					errs[g] = fmt.Errorf("caller %d: roundtrip mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelWorkersExceedBlocks pins the degenerate fan-out: more workers
// than blocks must neither deadlock nor duplicate work.
func TestParallelWorkersExceedBlocks(t *testing.T) {
	cfg := container.Config{Codec: "zstd", Level: 1, BlockSize: 64 << 10, Workers: 16}
	for _, data := range [][]byte{corpus.LogLines(5, 100<<10), {42}} {
		for i := 0; i < 3; i++ {
			back, err := readContainer(encodeContainer(t, data, cfg), container.WithWorkers(16))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("%d bytes: roundtrip mismatch with workers > blocks", len(data))
			}
		}
	}
}

// TestParallelCorruptChunkHeaders drives hostile block framing through both
// readers: every path must fail with ErrCorrupt, allocate nothing huge, and
// never panic.
func TestParallelCorruptChunkHeaders(t *testing.T) {
	data := corpus.LogLines(6, 100<<10)
	good := encodeContainer(t, data, container.Config{Codec: "zstd", Level: 1, BlockSize: 32 << 10, Workers: 2})
	hdr := streamHeader(32 << 10)
	blockHdr := func(compLen uint64, tail ...byte) []byte {
		b := binary.AppendUvarint(append([]byte{}, hdr...), compLen)
		b = binary.AppendUvarint(b, 1000)
		return append(append(b, make([]byte, 8)...), tail...)
	}
	// The footer claims 2^30 blocks; the trailer's length covers it.
	hugeCount := append(append([]byte{}, hdr...), 0)
	footer := binary.AppendUvarint(nil, 1<<30)
	hugeCount = append(hugeCount, footer...)
	hugeCount = binary.LittleEndian.AppendUint64(hugeCount, uint64(len(footer)))
	hugeCount = append(hugeCount, "ZSXI"...)

	streaming := map[string][]byte{
		// First block declares a 2^62-byte payload: must be rejected before
		// the int conversion.
		"overflow-length": blockHdr(1<<62, 0xde, 0xad),
		// Declared length runs past the end of the container.
		"length-past-end": blockHdr(1000, 1, 2, 3),
	}
	seekable := map[string][]byte{
		"huge-count": hugeCount,
		// Trailing garbage after the trailer.
		"trailing-bytes": append(append([]byte{}, good...), 0xff),
	}
	for name, frame := range streaming {
		t.Run(name, func(t *testing.T) {
			if _, err := readContainer(frame); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	for name, frame := range seekable {
		t.Run(name, func(t *testing.T) {
			if _, err := container.NewReaderAt(bytes.NewReader(frame), int64(len(frame))); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	// A bit flip inside a block payload is caught by the block checksum.
	mut := append([]byte{}, good...)
	mut[len(mut)/2] ^= 0x01
	if back, err := readContainer(mut); err == nil && bytes.Equal(back, data) {
		t.Fatal("payload bit flip decoded to identical content")
	}
}

// chunkyReader hands out its data in irregular pieces, so the encoder's
// block assembly sees short reads.
type chunkyReader struct {
	data []byte
	n    int
}

func (r *chunkyReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.n++
	k := 1 + (r.n*7919)%4096
	k = min(k, len(p), len(r.data))
	copy(p, r.data[:k])
	r.data = r.data[k:]
	return k, nil
}

func streamRoundtrip(t *testing.T, name string, data []byte, blockSize int) {
	t.Helper()
	var sink bytes.Buffer
	if _, err := container.Encode(context.Background(), &sink, &chunkyReader{data: data},
		container.Config{Codec: name, Level: 1, BlockSize: blockSize, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	back, err := readContainer(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("%s: stream roundtrip mismatch (%d vs %d bytes)", name, len(back), len(data))
	}
}

func TestStreamRoundtripAllCodecs(t *testing.T) {
	data := corpus.LogLines(1, 1<<20)
	for _, name := range codec.Names() {
		streamRoundtrip(t, name, data, 64<<10)
	}
}

func TestStreamEdgeSizes(t *testing.T) {
	const bs = container.DefaultBlockSize
	for _, n := range []int{0, 1, 100, bs - 1, bs, bs + 1} {
		streamRoundtrip(t, "zstd", corpus.LogLines(int64(n), n), 0)
	}
}

func TestStreamWriterAfterClose(t *testing.T) {
	var sink bytes.Buffer
	b, err := container.NewBuilder(&sink, "lz4", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBlock([]byte("late")); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestStreamReaderErrors(t *testing.T) {
	// Bad magic.
	if _, err := readContainer([]byte("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated: a valid container cut mid-block.
	frame := encodeContainer(t, corpus.LogLines(9, 100000), container.Config{Codec: "zstd", Level: 1, BlockSize: 1 << 10, Workers: 2})
	if _, err := readContainer(frame[:len(frame)/2]); err == nil {
		t.Fatal("truncated container read fully")
	}
	// Missing terminator: the reader hits EOF instead of a clean end.
	noTerm := encodeContainer(t, corpus.LogLines(9, 3000), container.Config{Codec: "zstd", Level: 1, BlockSize: 1 << 10, Workers: 2})
	ra, err := container.NewReaderAt(bytes.NewReader(noTerm), int64(len(noTerm)))
	if err != nil {
		t.Fatal(err)
	}
	last := ra.Block(ra.NumBlocks() - 1)
	noTerm = noTerm[:last.Off+int64(last.CompLen)]
	if _, err := readContainer(noTerm); err == nil {
		t.Fatal("unterminated container read fully")
	}
}

func TestStreamInterfaceCompliance(t *testing.T) {
	var _ io.ReadCloser = (*container.Reader)(nil)
	var _ io.ReaderAt = (*container.ReaderAt)(nil)
}

// TestStreamHostileLengths drives hostile declared block lengths through
// the streaming reader: each must fail with ErrCorrupt before any oversized
// allocation.
func TestStreamHostileLengths(t *testing.T) {
	mk := func(tail ...byte) []byte {
		return append(streamHeader(1<<10), tail...)
	}
	cases := map[string][]byte{
		"bad-magic": []byte("NOPE...."),
		// Declared compressed block past the container's limit.
		"over-limit": mk(binary.AppendUvarint(nil, 2*container.MaxBlockSize)...),
		// 10-byte varint encoding a value past 2^64: ReadUvarint overflow.
		"varint-overflow": mk(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		// Declared 2^62 bytes: would truncate negative as a 32-bit int.
		"int-overflow": mk(binary.AppendUvarint(nil, 1<<62)...),
		// In-range declared length, almost no payload behind it: the reader
		// must fail after reading what exists, not allocate 16 MiB up front.
		"truncated-body": mk(append(binary.AppendUvarint(binary.AppendUvarint(nil, 16<<20), 1<<10), make([]byte, 11)...)...),
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := readContainer(stream); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestStreamTruncationAllocBounded pins the incremental-read hardening: a
// declared 64 MiB block backed by a few bytes of stream must not allocate
// the full declared size.
func TestStreamTruncationAllocBounded(t *testing.T) {
	hostile := binary.AppendUvarint(streamHeader(1<<10), container.MaxBlockSize)
	hostile = binary.AppendUvarint(hostile, 1<<10)
	hostile = append(hostile, make([]byte, 8+64)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := readContainer(hostile, container.WithWorkers(1)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("truncated 64 MiB claim allocated %d bytes, want ≤ 8 MiB", grew)
	}
}

func TestBlockContainerRoundtrip(t *testing.T) {
	data := corpus.LogLines(7, 100000)
	for _, name := range codec.Names() {
		frame := buildBlocks(t, name, nil, data, 4096)
		ra, err := container.NewReaderAt(bytes.NewReader(frame), int64(len(frame)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back []byte
		for i := 0; i < ra.NumBlocks(); i++ {
			if back, err = ra.DecodeBlock(back, i); err != nil {
				t.Fatalf("%s: block %d: %v", name, i, err)
			}
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("%s: block roundtrip mismatch", name)
		}
	}
}

func TestBlockContainerCorrupt(t *testing.T) {
	frame := buildBlocks(t, "lz4", nil, corpus.LogLines(9, 5000), 1024)
	if _, err := container.NewReaderAt(bytes.NewReader(frame[:len(frame)/2]), int64(len(frame)/2)); err == nil {
		t.Error("truncated container opened")
	}
	if _, err := container.NewReaderAt(bytes.NewReader(nil), 0); err == nil {
		t.Error("empty container opened")
	}
}

func TestQuickBlockRoundtrip(t *testing.T) {
	names := codec.Names()
	f := func(seed int64, size uint16, bsSel uint8, codecSel uint8) bool {
		name := names[int(codecSel)%len(names)]
		data := corpus.LogLines(seed, int(size)%20000)
		bs := []int{0, 64, 1024, 4096}[int(bsSel)%4]
		frame := buildBlocks(t, name, nil, data, bs)
		ra, err := container.NewReaderAt(bytes.NewReader(frame), int64(len(frame)))
		if err != nil || ra.Size() != int64(len(data)) {
			return false
		}
		back := make([]byte, len(data))
		n, err := ra.ReadAt(back, 0)
		return n == len(data) && (err == nil || err == io.EOF) && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
