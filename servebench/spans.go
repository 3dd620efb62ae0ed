package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/datacomp/datacomp/internal/trace"
)

// layerID names the benchmark-side span layers. Every span is opened in
// this directory around a call into a layer; nothing inside the program is
// instrumented.
type layerID int

const (
	layerBench layerID = iota // the closed-loop iteration: op choice, model checks
	layerCluster
	layerCache
	layerConnWrite // the cluster's client conn: Write blocks until the node reads
	layerConnRead  // Read waits for the node's reply, so it holds the node's work
	numLayers
)

var layerNames = [numLayers]string{"bench", "cluster", "cache", "conn_write", "conn_read"}

// spans records internal/trace spans and sums their durations per layer.
// A nil *spans, or one switched off, records nothing.
type spans struct {
	on  atomic.Bool
	rec *trace.Recorder
	tr  *trace.Tracer
	ns  [numLayers]atomic.Int64
	n   [numLayers]atomic.Int64
}

func newSpans() *spans {
	rec := trace.NewRecorder(16, 2048)
	return &spans{rec: rec, tr: trace.New(trace.Config{SampleEvery: 1, Recorder: rec})}
}

type span struct {
	s  *spans
	h  trace.SpanHandle
	t0 time.Time
	l  layerID
}

// root opens a new trace, or returns an inert span when recording is off.
func (s *spans) root(l layerID, name string) span {
	if s == nil || !s.on.Load() {
		return span{}
	}
	_, h := s.tr.StartRoot(context.Background(), name)
	return span{s: s, h: h, t0: time.Now(), l: l}
}

func (p span) child(l layerID, name string) span {
	if p.s == nil {
		return span{}
	}
	return span{s: p.s, h: p.h.Child(name), t0: time.Now(), l: l}
}

func (p span) end() {
	if p.s == nil {
		return
	}
	d := time.Since(p.t0)
	p.h.End()
	p.s.ns[p.l].Add(int64(d))
	p.s.n[p.l].Add(1)
}

// metrics reports per-layer self time per traced op and the tracing
// overhead. Self time is a span's duration minus its children's; summed
// over a run that is the layer total minus its child layers' totals, since
// every child span nests in exactly one parent span.
func (s *spans) metrics(ph *phase) map[string]metric {
	var tot [numLayers]float64
	for i := range tot {
		tot[i] = float64(s.ns[i].Load())
	}
	self := tot
	self[layerBench] -= tot[layerCluster] + tot[layerCache]
	self[layerCluster] -= tot[layerConnWrite] + tot[layerConnRead]
	ops := float64(s.n[layerBench].Load())
	out := map[string]metric{}
	for i, name := range layerNames {
		out["trace.self_us_per_op."+name] = metric{self[i] / ops / 1e3, "us"}
	}
	// Rounds alternate untraced and traced, so the overhead is measured on
	// the same target state instead of in a second process.
	var opsOf, secsOf [2]float64
	for _, r := range ph.rounds {
		i := 0
		if r.traced {
			i = 1
		}
		opsOf[i] += float64(r.ops)
		secsOf[i] += r.elapsed.Seconds()
	}
	out["trace.overhead_frac"] = metric{1 - (opsOf[1]/secsOf[1])/(opsOf[0]/secsOf[0]), "ratio"}
	out["trace.unattributed_frac"] = metric{self[layerBench] / tot[layerBench], "ratio"}
	return out
}

// write saves the retained traces as Chrome trace-event JSON.
func (s *spans) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteChromeTrace(f, s.rec.Snapshot()); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
