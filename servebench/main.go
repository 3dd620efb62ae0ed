// Command servebench is the repository's end-to-end serving benchmark. It
// drives one closed-loop workload against the public APIs of
// internal/cluster or internal/cache, verifies every result, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	servebench --workload cluster-read-mostly --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same work with
// benchmark-side spans on alternating rounds and prints the per-layer
// metrics instead. See README.md for the workloads and the metric table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how many times a run builds its target; setup_s is the
// median, and only the last build serves the timed phase.
const setupRounds = 3

// tracedRounds splits the timed phase of a traced run, which alternates
// untraced and traced rounds; an untraced run is one round.
const tracedRounds = 6

// traceDir receives the Chrome trace of a traced run.
var traceDir = filepath.Join(".bench_build", "traces")

// clients is the closed loop's concurrency: two goroutines, each issuing
// its next op only after the previous one returned.
const clients = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "nominal measured seconds; sets the fixed op count")
		traced  = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (want %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, seed int64, seconds int, traced bool) (*result, error) {
	in := w.inputs(seed, w.rate*seconds)
	var sp *spans
	if traced {
		sp = newSpans()
	}

	// Every set-up round builds a fresh target from the same inputs; the
	// earlier ones exist only to time set-up and are closed at once.
	var t target
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, fmt.Errorf("close set-up round %d: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if t, err = w.setup(ctx, in, sp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer t.close()

	ref, err := hostRefMBps()
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	fmt.Printf("host.ref_mb_s %.2f\n", ref)

	warm := runOps(ctx, t, nil, in.warmup, 1)
	runtime.GC()
	t.mark()
	rounds := 1
	if traced {
		rounds = tracedRounds
	}
	ph := runOps(ctx, t, sp, in.ops, rounds)
	layer, err := t.finish(ph.ops)
	if err != nil {
		return nil, err
	}

	res := &result{
		Correct:   warm.failed == 0 && ph.failed == 0,
		Attempted: int64(warm.ops + ph.ops),
		Failed:    int64(warm.failed + ph.failed),
		Metrics:   map[string]metric{},
	}
	if !traced {
		m := res.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["ops_per_s"] = metric{float64(ph.ops) / ph.elapsed.Seconds(), "1/s"}
		m["get_p50_us"] = metric{quantileUS(ph.get, 0.50), "us"}
		m["get_p99_us"] = metric{quantileUS(ph.get, 0.99), "us"}
		m["put_p50_us"] = metric{quantileUS(ph.put, 0.50), "us"}
		m["put_p99_us"] = metric{quantileUS(ph.put, 0.99), "us"}
		m["cpu_us_per_op"] = metric{float64(ph.cpu.Nanoseconds()) / 1e3 / float64(ph.ops), "us"}
		m["allocs_per_op"] = metric{float64(ph.mallocs) / float64(ph.ops), "count"}
		m["wire_bytes_per_op"] = metric{layer.wireBytesPerOp, "bytes"}
		m["stored_bytes_per_user_byte"] = metric{layer.storedPerUserByte, "ratio"}
		m["max_heap_mb"] = metric{float64(ph.maxHeap) / (1 << 20), "MiB"}
		fmt.Printf("samples: %d ops, %d gets, %d puts, %d get batches\n", ph.ops, len(ph.get), len(ph.put), ph.batches)
		return res, nil
	}

	for k, v := range layer.metrics {
		res.Metrics[k] = v
	}
	cm, err := codecMetrics(in, sp)
	if err != nil {
		return nil, fmt.Errorf("codec probes: %w", err)
	}
	for k, v := range cm {
		res.Metrics[k] = v
	}
	res.Metrics["host.ref_mb_s"] = metric{ref, "MB/s"}
	for k, v := range sp.metrics(ph) {
		res.Metrics[k] = v
	}
	path, err := sp.write(traceDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("wrote trace %s\n", path)
	printLayerTable(res.Metrics)
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileUS returns the nearest-rank q-quantile of sorted nanosecond
// samples, in microseconds.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

func printLayerTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
