// Golden encoder-output gate: every entropy coder and codec frame below is
// hashed with XXH64 and compared against digests recorded from a known-good
// encoder. Any change to a single emitted byte — a different parse, table,
// bit order or block mode choice — fails here, so refactors of the bit I/O
// and the entropy stages must stay byte-identical to land.
//
// The corpora are regenerated from the deterministic corpus generators.
// The zstd cases cover both entropy-stage generations: short items stay
// under the multi-stream thresholds (single-stream Huffman literals,
// single-state FSE sequences) and the large inputs cross them.
package datacomp_test

import (
	"fmt"
	"sort"
	"testing"

	"github.com/datacomp/datacomp/internal/corpus"
	"github.com/datacomp/datacomp/internal/fse"
	"github.com/datacomp/datacomp/internal/huffman"
	"github.com/datacomp/datacomp/internal/xxhash"
	"github.com/datacomp/datacomp/internal/zlibx"
	"github.com/datacomp/datacomp/internal/zstd"
)

// goldenDigests holds XXH64 digests of each case's frame bytes.
var goldenDigests = map[string]uint64{
	"fse-t12/binary-40k":      0x1639d8e499d1c87a,
	"fse-t12/item-700":        0x5c18fb48dc77a518,
	"fse-t12/logs-96k":        0xd8e12270465198db,
	"fse-t12/records-3k":      0xdf1de1ffeac4d444,
	"fse-t12/source-6k":       0x256bc970ee4dde44,
	"fse-t9/binary-40k":       0xedd5e6fb8ce57e0f,
	"fse-t9/item-700":         0x5c18fb48dc77a518,
	"fse-t9/logs-96k":         0x894cbd6cf84715e8,
	"fse-t9/records-3k":       0x15fe58d986664576,
	"fse-t9/source-6k":        0xf4ffcd09a02612ce,
	"fse2-t12/binary-40k":     0x6eebb0048df94e8c,
	"fse2-t12/item-700":       0x9cf63b32b3fa1059,
	"fse2-t12/logs-96k":       0x14ca5ad5d7346754,
	"fse2-t12/records-3k":     0x267f6630023e1886,
	"fse2-t12/source-6k":      0x6b785063295b61ad,
	"fse2-t9/binary-40k":      0x4b7208cb8d2bc909,
	"fse2-t9/item-700":        0x9cf63b32b3fa1059,
	"fse2-t9/logs-96k":        0x8e4eb64686c22cbe,
	"fse2-t9/records-3k":      0x2ddf55b5eb1608b9,
	"fse2-t9/source-6k":       0xf41f20cb943031d9,
	"huffman/binary-40k":      0xf6570be28c41ace9,
	"huffman/item-180":        0x14b0c187a908fcba,
	"huffman/item-700":        0x6df512061a16ca77,
	"huffman/logs-96k":        0x101229f4bae68d40,
	"huffman/records-3k":      0xcbd4c983269451b6,
	"huffman/source-6k":       0xde93481de905a351,
	"huffman4/binary-40k":     0x9af11e22b37eecfb,
	"huffman4/item-180":       0x649f798fca20a2b7,
	"huffman4/item-700":       0xc783a0c50917d1e6,
	"huffman4/logs-96k":       0x0f559b7badf366cf,
	"huffman4/records-3k":     0x349b893fd5fc7de5,
	"huffman4/source-6k":      0x94de2acbcd9192d7,
	"zlib-L1/binary-40k":      0x2bafe1ac6d3218f8,
	"zlib-L1/item-180":        0xd0f66f0a8fde02cc,
	"zlib-L1/item-700":        0xf83bded7f9e80853,
	"zlib-L1/logs-96k":        0x9b71989b1abc25fc,
	"zlib-L1/records-3k":      0xaca07f6797b8ab22,
	"zlib-L1/source-6k":       0x8665ec1c28c81b27,
	"zlib-L6/binary-40k":      0x553dc5a80720c833,
	"zlib-L6/item-180":        0x0b2131aa03beba53,
	"zlib-L6/item-700":        0x6dfae6e84c1c547f,
	"zlib-L6/logs-96k":        0x3afe412ee2103be5,
	"zlib-L6/records-3k":      0xeebb160737c74f2f,
	"zlib-L6/source-6k":       0xa7f2c8ccb00050bd,
	"zstd-L1-dict/binary-40k": 0xce51e6c04380d93a,
	"zstd-L1-dict/item-180":   0x1278748dffbaca23,
	"zstd-L1-dict/item-700":   0x9bacc1455663e12d,
	"zstd-L1-dict/logs-96k":   0xb9e79116dab578a0,
	"zstd-L1-dict/records-3k": 0x68a4c4fe7dd997e9,
	"zstd-L1-dict/source-6k":  0x855711c72a44c78a,
	"zstd-L1/binary-40k":      0x79de1f0a4ba6f6f9,
	"zstd-L1/item-180":        0x92b5341b2602247f,
	"zstd-L1/item-700":        0x2d10efc5656eb8da,
	"zstd-L1/logs-96k":        0x5e7679e8431a76e7,
	"zstd-L1/records-3k":      0x2f0bf3c9936f4ab1,
	"zstd-L1/source-6k":       0xf9cfad21a8875dee,
	"zstd-L3-dict/binary-40k": 0x56db7c7cae61022a,
	"zstd-L3-dict/item-180":   0x181466f0bb2e5512,
	"zstd-L3-dict/item-700":   0x19e28a15fa9690b2,
	"zstd-L3-dict/logs-96k":   0xffd54070a24e4fda,
	"zstd-L3-dict/records-3k": 0x2888916193bb82a4,
	"zstd-L3-dict/source-6k":  0xfeaa17b4835bd4c0,
	"zstd-L3/binary-40k":      0x42a30c0a444cbe01,
	"zstd-L3/item-180":        0x92b5341b2602247f,
	"zstd-L3/item-700":        0x3158ae53252710de,
	"zstd-L3/logs-96k":        0x247fe9c7d8c82a3d,
	"zstd-L3/records-3k":      0xaa004a574322e4d2,
	"zstd-L3/source-6k":       0x99e26dd302d35c5c,
	"zstd-L9-dict/binary-40k": 0x3a804c86e412d104,
	"zstd-L9-dict/item-180":   0xa41eaf4cf9055f30,
	"zstd-L9-dict/item-700":   0x1db8c580d56ff1a8,
	"zstd-L9-dict/logs-96k":   0x3abb0a57b3888d89,
	"zstd-L9-dict/records-3k": 0x7e928ec2d682c13b,
	"zstd-L9-dict/source-6k":  0x58b42351c23da9e2,
	"zstd-L9/binary-40k":      0x8a462581ed3f0276,
	"zstd-L9/item-180":        0xfafcb42ed14e3903,
	"zstd-L9/item-700":        0xf90cde17fb4dee2b,
	"zstd-L9/logs-96k":        0xee7d0efee17212aa,
	"zstd-L9/records-3k":      0xfb3ad1980f8d8c16,
	"zstd-L9/source-6k":       0xda049c0f287efb95,
}

type goldenInput struct {
	name string
	data []byte
}

func goldenInputs() []goldenInput {
	return []goldenInput{
		{"item-180", corpus.LogLines(11, 180)},
		{"item-700", corpus.LogLines(12, 700)},
		{"records-3k", corpus.Records(5, 3<<10)},
		{"source-6k", corpus.SourceCode(3, 6<<10)},
		{"logs-96k", corpus.LogLines(7, 96<<10)},
		{"binary-40k", corpus.Binary(4, 40<<10)},
	}
}

// goldenFrames returns every frame the gate pins, keyed by case name.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	inputs := goldenInputs()
	dict := corpus.LogLines(3, 8<<10)

	for _, level := range []int{1, 3, 9} {
		for _, withDict := range []bool{false, true} {
			opts := zstd.Options{Level: level}
			tag := fmt.Sprintf("zstd-L%d", level)
			if withDict {
				opts.Dict = dict
				tag += "-dict"
			}
			// One encoder per configuration, reused across inputs, so the
			// scratch carried between frames is part of what is pinned.
			enc, err := zstd.NewEncoder(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inputs {
				frame, err := enc.Compress(nil, in.data)
				if err != nil {
					t.Fatalf("%s/%s: %v", tag, in.name, err)
				}
				out[tag+"/"+in.name] = frame
			}
		}
	}

	for _, level := range []int{1, 6} {
		enc, err := zlibx.NewEncoder(level)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			frame, err := enc.Compress(nil, in.data)
			if err != nil {
				t.Fatalf("zlib-L%d/%s: %v", level, in.name, err)
			}
			out[fmt.Sprintf("zlib-L%d/%s", level, in.name)] = frame
		}
	}

	var hs huffman.Scratch
	var fs fse.Scratch
	for _, in := range inputs {
		if frame, err := hs.Compress(nil, in.data); err == nil {
			out["huffman/"+in.name] = frame
		} else if err != huffman.ErrIncompressible {
			t.Fatalf("huffman/%s: %v", in.name, err)
		}
		if frame, err := hs.Compress4(nil, in.data); err == nil {
			out["huffman4/"+in.name] = frame
		} else if err != huffman.ErrIncompressible {
			t.Fatalf("huffman4/%s: %v", in.name, err)
		}
		for _, tlog := range []uint{9, 12} {
			if frame, err := fs.Compress(nil, in.data, tlog); err == nil {
				out[fmt.Sprintf("fse-t%d/%s", tlog, in.name)] = frame
			} else if err != fse.ErrIncompressible {
				t.Fatalf("fse/%s: %v", in.name, err)
			}
			if frame, err := fs.Compress2(nil, in.data, tlog); err == nil {
				out[fmt.Sprintf("fse2-t%d/%s", tlog, in.name)] = frame
			} else if err != fse.ErrIncompressible {
				t.Fatalf("fse2/%s: %v", in.name, err)
			}
		}
	}
	return out
}

func TestGoldenEncoderOutput(t *testing.T) {
	frames := goldenFrames(t)
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	var mismatched []string
	for _, name := range names {
		got := xxhash.Sum64(frames[name])
		if want, ok := goldenDigests[name]; !ok || got != want {
			mismatched = append(mismatched, fmt.Sprintf("\t%q: %#016x,", name, got))
		}
	}
	for name := range goldenDigests {
		if _, ok := frames[name]; !ok {
			t.Errorf("pinned case %s is no longer produced", name)
		}
	}
	if len(mismatched) > 0 {
		t.Errorf("%d of %d frames differ from the pinned encoder output; got:", len(mismatched), len(names))
		for _, line := range mismatched {
			t.Log(line)
		}
	}
}
