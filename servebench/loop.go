package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opBatch // cache GetBatch; its latency is kept out of the Get percentiles
)

// op is one pre-generated request. Inputs are built from the seed before
// set-up, so the timed loop only issues calls and checks replies.
type op struct {
	kind  opKind
	key   int32
	val   []byte
	batch []int32 // sorted, distinct keys of an opBatch
}

// target is one workload's system under test.
type target interface {
	// exec issues o, appends its latency to r, and checks the reply against
	// the benchmark's model; a mismatch is returned as an error.
	exec(ctx context.Context, root span, o *op, r *recorder) error
	// mark snapshots the layer counters at the start of the timed phase.
	mark()
	// finish reads the counters again and derives the layer metrics.
	finish(ops int) (layerResult, error)
	close() error
}

type layerResult struct {
	wireBytesPerOp    float64
	storedPerUserByte float64
	metrics           map[string]metric
}

// recorder is one client goroutine's latency log.
type recorder struct {
	get, put []int64
	batches  int
}

// round is one slice of the timed phase; the closed loop drains at every
// round boundary. A traced run alternates untraced and traced rounds.
type round struct {
	ops     int
	traced  bool
	elapsed time.Duration
}

// phase totals a timed phase over all its rounds.
type phase struct {
	rounds   []round
	ops      int
	failed   int
	elapsed  time.Duration // sum of round times
	cpu      time.Duration
	mallocs  uint64
	maxHeap  uint64
	get, put []int64 // sorted nanoseconds
	batches  int
}

// maxLoggedFailures bounds the failure lines a run prints to stderr.
const maxLoggedFailures = 5

// runOps runs ops to completion on the closed loop, in rounds equal slices.
// It never cancels: a round ends when its last op returns, so every issued
// op is counted and checked. With sp set, odd rounds are traced.
func runOps(ctx context.Context, t target, sp *spans, ops []op, rounds int) *phase {
	ph := &phase{ops: len(ops)}
	var failed atomic.Int64
	stopHeap := sampleHeap(&ph.maxHeap)
	recs := make([]recorder, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	for c := 0; c < rounds; c++ {
		lo, hi := len(ops)*c/rounds, len(ops)*(c+1)/rounds
		rd := round{ops: hi - lo, traced: sp != nil && c%2 == 1}
		if sp != nil {
			sp.on.Store(rd.traced)
		}
		var next atomic.Int64
		next.Store(int64(lo))
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(r *recorder) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					root := sp.root(layerBench, "op")
					err := t.exec(ctx, root, &ops[i], r)
					root.end()
					if err != nil {
						if n := failed.Add(1); n <= maxLoggedFailures {
							fmt.Fprintf(os.Stderr, "servebench: op %d failed: %v\n", i, err)
						}
					}
				}
			}(&recs[w])
		}
		wg.Wait()
		rd.elapsed = time.Since(t0)
		ph.elapsed += rd.elapsed
		ph.rounds = append(ph.rounds, rd)
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	stopHeap()
	for _, r := range recs {
		ph.get = append(ph.get, r.get...)
		ph.put = append(ph.put, r.put...)
		ph.batches += r.batches
	}
	slices.Sort(ph.get)
	slices.Sort(ph.put)
	if sp != nil {
		sp.on.Store(false)
	}
	ph.failed = int(failed.Load())
	return ph
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap polls live heap bytes every few milliseconds into *peak until
// the returned stop function is called; stop returns once polling ended.
func sampleHeap(peak *uint64) (stop func()) {
	const name = "/memory/classes/heap/objects:bytes"
	s := []metrics.Sample{{Name: name}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
