package zstd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/datacomp/datacomp/internal/bits"
	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/lz"
	"github.com/datacomp/datacomp/internal/stage"
)

// Frame constants. Version 2 frames may carry the multi-stream entropy
// sections (4-stream Huffman literals, 2-state FSE sequence streams);
// version 1 frames are still decoded for backward compatibility.
var (
	frameMagicV1 = [4]byte{'Z', 'S', 'X', '1'}
	frameMagicV2 = [4]byte{'Z', 'S', 'X', '2'}
)

const (
	flagDict     = 1 << 0
	flagChecksum = 1 << 1
)

// Block types.
const (
	blockRaw = iota
	blockRLE
	blockCompressed
)

// Literal-section modes. litsHuff4 (4 independent bitstreams sharing one
// table) only appears in version ≥2 frames.
const (
	litsRaw = iota
	litsRLE
	litsHuff
	litsHuff4
)

// Sequence-stream modes. seqFSE2 (two interleaved tANS states) only
// appears in version ≥2 frames.
const (
	seqFSE = iota
	seqRLE
	seqRaw
	seqFSE2
)

// seqTableLog is the FSE table size for sequence code streams.
const seqTableLog = 9

// Multi-stream thresholds: below these sizes the split/jump-header overhead
// and the second-state flush outweigh the decode-ILP win.
const (
	huff4MinLits = 1024
	fse2MinSeqs  = 16
)

// Options configure an Encoder.
type Options struct {
	// Level selects the speed/ratio trade-off, MinLevel..MaxLevel.
	// 0 means DefaultLevel.
	Level int
	// WindowLog overrides the level's match window (MinWindowLog..
	// MaxWindowLog). 0 keeps the level default. This is the knob the
	// paper's sensitivity study 3 sweeps for hardware sizing.
	WindowLog uint
	// Dict is a content-prefix dictionary shared out-of-band with the
	// decompressor, the mechanism behind the paper's small-item cache
	// compression (§IV-C).
	Dict []byte
	// Checksum appends an FNV-64a of the content to the frame.
	Checksum bool
}

// DictID identifies dictionary content; frames record it so decompression
// with a mismatched dictionary fails cleanly.
func DictID(dict []byte) uint32 {
	if len(dict) == 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write(dict)
	return h.Sum32()
}

// StageStats accumulates the time spent in the two compressor stages,
// powering the paper's Figure 7 (match finding vs entropy split).
type StageStats struct {
	MatchFind time.Duration
	Entropy   time.Duration
}

// Encoder compresses frames at a fixed configuration. Not safe for
// concurrent use.
type Encoder struct {
	opts      Options
	base      levelParams
	dictID    uint32
	matchers  map[lz.Params]*lz.Matcher
	lastP     lz.Params
	lastM     *lz.Matcher
	stats     StageStats
	stageHook stage.Hook

	seqs []lz.Sequence
	lits []byte
	llc  []byte
	ofc  []byte
	mlc  []byte
	work []byte

	// Entropy-stage scratch, reused across blocks so a warmed encoder
	// performs zero heap allocations per frame.
	huff    huffman.Scratch
	fseSc   fse.Scratch
	extras  bits.Writer64
	payload []byte
	litEnc  []byte
	seqEnc  [3][]byte
}

// NewEncoder validates opts and returns an Encoder.
func NewEncoder(opts Options) (*Encoder, error) {
	if opts.Level == 0 {
		opts.Level = DefaultLevel
	}
	base, err := paramsForLevel(opts.Level)
	if err != nil {
		return nil, err
	}
	if opts.WindowLog != 0 && (opts.WindowLog < MinWindowLog || opts.WindowLog > MaxWindowLog) {
		return nil, fmt.Errorf("zstd: window log %d out of range [%d,%d]", opts.WindowLog, MinWindowLog, MaxWindowLog)
	}
	return &Encoder{
		opts:     opts,
		base:     base,
		dictID:   DictID(opts.Dict),
		matchers: make(map[lz.Params]*lz.Matcher),
	}, nil
}

// Options returns the encoder's configuration.
func (e *Encoder) Options() Options { return e.opts }

// Stages returns the accumulated per-stage compression time and can be
// reset with ResetStages.
func (e *Encoder) Stages() StageStats { return e.stats }

// ResetStages clears the stage accounting.
func (e *Encoder) ResetStages() { e.stats = StageStats{} }

// SetStageHook installs a hook fired at stage transitions inside Compress
// (stage.MatchFind before parsing, stage.Entropy before entropy coding,
// stage.App when the block completes). A nil hook disables notification.
// The hook is called from the compressing goroutine only.
func (e *Encoder) SetStageHook(h stage.Hook) { e.stageHook = h }

func (e *Encoder) enterStage(s stage.ID) {
	if e.stageHook != nil {
		e.stageHook(s)
	}
}

func (e *Encoder) matcher(srcLen int) (*lz.Matcher, error) {
	p := adaptParams(e.base, srcLen, e.opts.WindowLog)
	// Same-shape payloads (a batch of cache items, RPC bodies) resolve to
	// the same adapted params; the one-entry cache skips the map hash on
	// that path, which is measurable at small payload sizes.
	if p == e.lastP && e.lastM != nil {
		return e.lastM, nil
	}
	m, ok := e.matchers[p]
	if !ok {
		var err error
		m, err = lz.NewMatcher(p)
		if err != nil {
			return nil, err
		}
		e.matchers[p] = m
	}
	e.lastP, e.lastM = p, m
	return m, nil
}

// Compress appends a complete frame holding src to dst.
func (e *Encoder) Compress(dst, src []byte) ([]byte, error) {
	dst = append(dst, frameMagicV2[:]...)
	flags := byte(0)
	if len(e.opts.Dict) > 0 {
		flags |= flagDict
	}
	if e.opts.Checksum {
		flags |= flagChecksum
	}
	dst = append(dst, flags)
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(src)))]...)
	if flags&flagDict != 0 {
		dst = binary.LittleEndian.AppendUint32(dst, e.dictID)
	}

	// Work buffer: dictionary content acts as parse history.
	buf := src
	start := 0
	if len(e.opts.Dict) > 0 {
		e.work = append(e.work[:0], e.opts.Dict...)
		e.work = append(e.work, src...)
		buf = e.work
		start = len(e.opts.Dict)
	}

	if len(src) == 0 {
		dst = appendBlockHeader(dst, true, blockRaw, 0)
	}
	for blockStart := start; blockStart < len(buf); blockStart += MaxBlockSize {
		blockEnd := blockStart + MaxBlockSize
		if blockEnd > len(buf) {
			blockEnd = len(buf)
		}
		last := blockEnd == len(buf)
		var err error
		dst, err = e.compressBlock(dst, buf, blockStart, blockEnd, last)
		if err != nil {
			return nil, err
		}
	}
	if e.opts.Checksum {
		dst = binary.LittleEndian.AppendUint64(dst, fnv64a(src))
	}
	return dst, nil
}

// fnv64a is an inline FNV-64a so checksumming does not allocate a
// hash.Hash64 per frame (hash/fnv's constructor escapes to the heap).
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// appendBlockHeader writes the 3-byte block header:
// bit0 last, bits1-2 type, bits3-23 size.
func appendBlockHeader(dst []byte, last bool, typ, size int) []byte {
	v := uint32(size) << 3
	v |= uint32(typ) << 1
	if last {
		v |= 1
	}
	return append(dst, byte(v), byte(v>>8), byte(v>>16))
}

func allSame(b []byte) bool {
	for i := 1; i < len(b); i++ {
		if b[i] != b[0] {
			return false
		}
	}
	return true
}

func (e *Encoder) compressBlock(dst, buf []byte, blockStart, blockEnd int, last bool) ([]byte, error) {
	content := buf[blockStart:blockEnd]
	if len(content) >= 16 && allSame(content) {
		dst = appendBlockHeader(dst, last, blockRLE, len(content))
		return append(dst, content[0]), nil
	}

	// Stage 1: match finding over the window preceding the block.
	m, err := e.matcher(blockEnd - blockStart)
	if err != nil {
		return nil, err
	}
	windowBase := blockStart - (1 << m.Params().WindowLog)
	if windowBase < 0 {
		windowBase = 0
	}
	e.enterStage(stage.MatchFind)
	t0 := time.Now()
	e.seqs = m.Parse(e.seqs[:0], buf[windowBase:blockEnd], blockStart-windowBase)
	t1 := time.Now()
	e.stats.MatchFind += t1.Sub(t0)

	// Stage 2: entropy coding.
	e.enterStage(stage.Entropy)
	payload, err := e.encodeBlockPayload(content)
	e.stats.Entropy += time.Since(t1)
	e.enterStage(stage.App)
	if err != nil {
		return nil, err
	}
	if payload == nil || len(payload) >= len(content) {
		dst = appendBlockHeader(dst, last, blockRaw, len(content))
		return append(dst, content...), nil
	}
	dst = appendBlockHeader(dst, last, blockCompressed, len(payload))
	return append(dst, payload...), nil
}

// encodeBlockPayload serializes the parsed sequences. It returns nil when
// the representation cannot beat a raw block.
func (e *Encoder) encodeBlockPayload(content []byte) ([]byte, error) {
	e.lits = e.lits[:0]
	e.llc = e.llc[:0]
	e.ofc = e.ofc[:0]
	e.mlc = e.mlc[:0]
	extras := &e.extras
	extras.Reset()

	pos := 0
	numSeqs := 0
	reps := newRepState()
	for _, s := range e.seqs {
		e.lits = append(e.lits, content[pos:pos+int(s.LitLen)]...)
		pos += int(s.LitLen) + int(s.MatchLen)
		if s.MatchLen == 0 {
			continue // trailing literals live only in the literal section
		}
		if s.MatchLen < 3 || s.Offset == 0 {
			return nil, errors.New("zstd: internal: invalid sequence")
		}
		numSeqs++
		lc := llCode(s.LitLen)
		ofValue := reps.encode(s.Offset)
		oc := ofCode(ofValue)
		mc := mlCode(s.MatchLen)
		e.llc = append(e.llc, lc)
		e.ofc = append(e.ofc, oc)
		e.mlc = append(e.mlc, mc)
		extras.WriteBits(uint64(llExtra(s.LitLen, lc)), uint(llExtraBits[lc]))
		ofx, ofn := ofExtra(ofValue)
		extras.WriteBits(uint64(ofx), uint(ofn))
		extras.WriteBits(uint64(mlExtra(s.MatchLen, mc)), uint(mlExtraBits[mc]))
	}
	if pos != len(content) {
		return nil, fmt.Errorf("zstd: internal: sequences cover %d of %d bytes", pos, len(content))
	}

	payload := e.payload[:0]
	var tmp [binary.MaxVarintLen64]byte

	// Literals section.
	switch {
	case len(e.lits) == 0:
		payload = append(payload, litsRaw)
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], 0)]...)
	case len(e.lits) >= 8 && allSame(e.lits):
		payload = append(payload, litsRLE)
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.lits)))]...)
		payload = append(payload, e.lits[0])
	default:
		litMode := byte(litsHuff)
		var enc []byte
		var err error
		if len(e.lits) >= huff4MinLits {
			litMode = litsHuff4
			enc, err = e.huff.Compress4(e.litEnc[:0], e.lits)
		} else {
			enc, err = e.huff.Compress(e.litEnc[:0], e.lits)
		}
		if err == nil {
			e.litEnc = enc
			payload = append(payload, litMode)
			payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.lits)))]...)
			payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(enc)))]...)
			payload = append(payload, enc...)
		} else if err == huffman.ErrIncompressible {
			if enc != nil {
				e.litEnc = enc // empty, but keeps the grown capacity
			}
			payload = append(payload, litsRaw)
			payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(e.lits)))]...)
			payload = append(payload, e.lits...)
		} else {
			return nil, err
		}
	}

	// Sequence section.
	payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(numSeqs))]...)
	if numSeqs > 0 {
		streams := [3][]byte{e.llc, e.ofc, e.mlc}
		var encoded [3][]byte
		modes := [3]byte{}
		for i, s := range streams {
			switch {
			case allSame(s):
				modes[i] = seqRLE
				encoded[i] = s[:1]
			default:
				seqMode := byte(seqFSE)
				var enc []byte
				var err error
				if numSeqs >= fse2MinSeqs {
					seqMode = seqFSE2
					enc, err = e.fseSc.Compress2(e.seqEnc[i][:0], s, seqTableLog)
				} else {
					enc, err = e.fseSc.Compress(e.seqEnc[i][:0], s, seqTableLog)
				}
				if err == nil {
					e.seqEnc[i] = enc
					modes[i] = seqMode
					encoded[i] = enc
				} else if err == fse.ErrIncompressible {
					if enc != nil {
						e.seqEnc[i] = enc // empty, but keeps the grown capacity
					}
					modes[i] = seqRaw
					encoded[i] = s
				} else {
					return nil, err
				}
			}
		}
		payload = append(payload, modes[0]|modes[1]<<2|modes[2]<<4)
		for i, enc := range encoded {
			switch modes[i] {
			case seqRLE:
				payload = append(payload, enc[0])
			case seqRaw: // length implied by numSeqs
				payload = append(payload, enc...)
			case seqFSE, seqFSE2:
				payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(enc)))]...)
				payload = append(payload, enc...)
			}
		}
		ex := extras.Flush()
		payload = append(payload, tmp[:binary.PutUvarint(tmp[:], uint64(len(ex)))]...)
		payload = append(payload, ex...)
	}
	e.payload = payload // keep capacity for the next block
	return payload, nil
}
