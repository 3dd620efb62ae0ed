package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/datacomp/datacomp/internal/corpus"
)

// workload is one traffic mix. rate is the nominal ops/s on a 2-vCPU host:
// a run issues rate × --seconds ops however fast the host is, so every run
// of a workload does the same work.
type workload struct {
	name   string
	rate   int
	inputs func(seed int64, n int) *inputs
	setup  func(ctx context.Context, in *inputs, sp *spans) (target, error)
}

var workloads = map[string]workload{
	"cluster-read-mostly": {
		name: "cluster-read-mostly", rate: 15000,
		inputs: func(seed int64, n int) *inputs {
			return clusterInputs(seed, n, mix{keys: 20000, zipf: 1.1, getFrac: 0.95}, "user_profile")
		},
		setup: setupCluster,
	},
	"cluster-write-heavy": {
		name: "cluster-write-heavy", rate: 2000,
		inputs: func(seed int64, n int) *inputs {
			return clusterInputs(seed, n, mix{keys: 20000, getFrac: 0.20}, "post_meta")
		},
		setup: setupCluster,
	},
	"cache-typed": {
		name: "cache-typed", rate: 13000,
		inputs: func(seed int64, n int) *inputs {
			return cacheInputs(seed, n, mix{keys: 20000, zipf: 1.1, getFrac: 0.60, batchFrac: 0.10})
		},
		setup: setupCache,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// mix is a workload's key space and op shares; the rest of the ops are
// puts (cache Sets).
type mix struct {
	keys      int
	zipf      float64 // 0: uniform keys
	getFrac   float64
	batchFrac float64
}

// batchSize is the key count of a cache GetBatch.
const batchSize = 16

// poolItems is how many distinct corpus items each type contributes.
// Written values are pool items behind a unique stamp, so every put is
// distinguishable while input generation stays cheap. The pools come from
// corpusSeed whatever --seed is, and each pool is dealt out in a seeded
// shuffled order, every item once per pass: item sizes are long-tailed
// (up to 1 MiB), and drawing with replacement let a few giant items swing
// bytes/op and heap by a fifth from one seed to the next.
const (
	poolItems  = 2048
	corpusSeed = 1
)

type inputs struct {
	keyTypes []string // item type per key
	preload  [][]byte // initial value per key
	warmup   []op
	ops      []op
	samples  map[string][][]byte // per-type corpus items: dictionaries and codec probes
}

// keyPicker draws key indices: zipf over the key space, or uniform.
type keyPicker func() int32

func newKeyPicker(rng *rand.Rand, m mix) keyPicker {
	if m.zipf > 0 {
		z := rand.NewZipf(rng, m.zipf, 1, uint64(m.keys-1))
		return func() int32 { return int32(z.Uint64()) }
	}
	return func() int32 { return int32(rng.Intn(m.keys)) }
}

// genInputs builds preload values and n timed ops (plus a tenth as much
// warm-up) from the seed.
func genInputs(seed int64, n int, m mix, types []corpus.ItemType) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{samples: map[string][][]byte{}}
	pools := make([][][]byte, len(types))
	decks := make([][]int, len(types))
	for i, t := range types {
		pools[i] = corpus.CacheItems(corpusSeed+int64(i), t, poolItems)
		in.samples[t.Name] = pools[i]
	}
	seq := 0
	value := func(typ int) []byte {
		if len(decks[typ]) == 0 {
			decks[typ] = rng.Perm(poolItems)
		}
		p := pools[typ][decks[typ][0]]
		decks[typ] = decks[typ][1:]
		seq++
		v := make([]byte, 0, len(p)+9)
		v = fmt.Appendf(v, "%08x|", seq)
		return append(v, p...)
	}
	// Key k has type k mod len(types); with zipf keys the index is the
	// popularity rank, so every rank band has the same type mix whatever
	// the seed.
	typeIdx := make([]int, m.keys)
	in.keyTypes = make([]string, m.keys)
	in.preload = make([][]byte, m.keys)
	for k := range in.preload {
		typeIdx[k] = k % len(types)
		in.keyTypes[k] = types[typeIdx[k]].Name
		in.preload[k] = value(typeIdx[k])
	}
	pick := newKeyPicker(rng, m)
	gen := func(count int) []op {
		ops := make([]op, count)
		for i := range ops {
			o := &ops[i]
			switch r := rng.Float64(); {
			case r < m.getFrac:
				o.kind, o.key = opGet, pick()
			case r < m.getFrac+m.batchFrac:
				o.kind = opBatch
				for len(o.batch) < batchSize {
					if k := pick(); !slices.Contains(o.batch, k) {
						o.batch = append(o.batch, k)
					}
				}
				slices.Sort(o.batch)
			default:
				o.kind, o.key = opPut, pick()
				o.val = value(typeIdx[o.key])
			}
		}
		return ops
	}
	in.warmup = gen(max(n/10, 1))
	in.ops = gen(n)
	return in
}

func clusterInputs(seed int64, n int, m mix, typ string) *inputs {
	var t corpus.ItemType
	for _, it := range corpus.DefaultItemTypes() {
		if it.Name == typ {
			t = it
		}
	}
	return genInputs(seed, n, m, []corpus.ItemType{t})
}

func cacheInputs(seed int64, n int, m mix) *inputs {
	return genInputs(seed, n, m, corpus.DefaultItemTypes())
}

// model is the benchmark's record of what each key must read back. Puts
// hold the key's write lock across the call, so the model's order is the
// system's order; gets hold the read lock, so a get never races a put on
// its key.
type model struct {
	mu   []sync.RWMutex
	vals [][]byte
	// pending holds values of writes that failed after the last acked one:
	// a failed quorum write may still have reached a replica and win a
	// later read, so those values are accepted too.
	pending [][][]byte
}

func newModel(preload [][]byte) *model {
	return &model{
		mu:      make([]sync.RWMutex, len(preload)),
		vals:    slices.Clone(preload),
		pending: make([][][]byte, len(preload)),
	}
}

// record notes a write outcome; the caller holds mu[k] for writing.
func (m *model) record(k int32, val []byte, err error) {
	if err == nil {
		m.vals[k] = val
		m.pending[k] = nil
		return
	}
	m.pending[k] = append(m.pending[k], val)
}

// check reports whether a read of key k is consistent with the model.
func (m *model) check(k int32, got []byte, found bool) bool {
	if !found {
		return m.vals[k] == nil
	}
	if bytes.Equal(got, m.vals[k]) {
		return true
	}
	for _, p := range m.pending[k] {
		if bytes.Equal(got, p) {
			return true
		}
	}
	return false
}

// preload writes every key's initial value from the closed loop's clients.
func preload(n int, put func(k int32) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += clients {
				if err := put(int32(k)); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
