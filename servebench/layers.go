package main

import (
	"context"
	"time"

	"github.com/datacomp/datacomp/internal/cache"
	"github.com/datacomp/datacomp/internal/codec"
	"github.com/datacomp/datacomp/internal/corpus"
)

// layerUnits lists every per-layer metric a traced run prints. A workload
// that does not use a layer reports its metrics as 0. The trace.* and
// codec.* metrics are added by spans.metrics and codecMetrics.
var layerUnits = map[string]string{
	"cluster.replica_calls_per_op": "count",
	"cluster.read_repairs_per_get": "ratio",
	"cluster.replica_errors":       "count",

	"rpc.dials":                     "count",
	"rpc.wire_bytes_per_call":       "bytes",
	"rpc.saved_frac":                "ratio",
	"rpc.compress_ns_per_call":      "ns",
	"rpc.decompress_ns_per_call":    "ns",
	"rpc.conn_write_wait_us_per_op": "us",
	"rpc.call_p50_us":               "us",

	"kvstore.compress_ns_per_put":   "ns",
	"kvstore.decompress_ns_per_get": "ns",
	"kvstore.read_ns_per_get":       "ns",
	"kvstore.flushes":               "count",
	"kvstore.compactions":           "count",
	"kvstore.write_amp":             "ratio",
	"kvstore.block_ratio":           "ratio",
	"kvstore.blocks_read_per_get":   "count",
	"kvstore.block_cache_hit_rate":  "ratio",
	"kvstore.wal_bytes_per_put":     "bytes",

	"cache.hit_rate":              "ratio",
	"cache.evictions_per_set":     "ratio",
	"cache.compress_ns_per_set":   "ns",
	"cache.decompress_ns_per_get": "ns",
	"cache.ratio":                 "ratio",
}

func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for k, u := range layerUnits {
		m[k] = metric{0, u}
	}
	return m
}

// codecBytes is how many input bytes each codec probe processes: a fixed
// amount, so a probe's time depends only on codec and host speed.
const codecBytes = 32 << 20

// codecMetrics times the codecs directly on the workload's own payloads:
// lz4-L1+checksum on rpc-sized items (the cluster's link codec), zstd-L1
// on 16 KiB blocks of them (the kvstore block codec), and zstd-L3
// decompression with a per-type trained dictionary (the cache's path).
func codecMetrics(in *inputs, sp *spans) (map[string]metric, error) {
	var items [][]byte
	for _, s := range in.samples {
		items = append(items, s...)
	}
	out := map[string]metric{}
	// Probe spans are standalone traces: they are not ops, so they stay
	// out of the per-op layer sums.
	probe := func(name string, f func() (int, error)) error {
		_, h := sp.tr.StartRoot(context.Background(), "codec."+name)
		t0 := time.Now()
		n, err := f()
		d := time.Since(t0)
		h.SetInt("bytes", int64(n)).End()
		out["codec."+name+"_mb_s"] = metric{float64(n) / d.Seconds() / 1e6, "MB/s"}
		return err
	}

	lz4, err := codec.NewEngine("lz4", codec.WithLevel(1), codec.WithChecksum(true))
	if err != nil {
		return nil, err
	}
	if err := probe("lz4_l1_compress", func() (int, error) { return compressAll(lz4, items) }); err != nil {
		return nil, err
	}

	var blocks [][]byte
	var blk []byte
	for _, it := range items {
		blk = append(blk, it...)
		if len(blk) >= 16<<10 {
			blocks = append(blocks, blk[:16<<10])
			blk = nil
		}
	}
	zstd1, err := codec.NewEngine("zstd", codec.WithLevel(1))
	if err != nil {
		return nil, err
	}
	if err := probe("zstd_l1_compress", func() (int, error) { return compressAll(zstd1, blocks) }); err != nil {
		return nil, err
	}

	dicts, err := cache.TrainDictionaries(in.samples, dictBytes)
	if err != nil {
		return nil, err
	}
	type frame struct {
		eng  codec.Engine
		comp []byte
	}
	var frames []frame
	for typ, d := range dicts {
		eng, err := codec.NewEngine("zstd", codec.WithLevel(cacheLevel), codec.WithDict(d))
		if err != nil {
			return nil, err
		}
		for _, it := range in.samples[typ] {
			c, err := eng.Compress(nil, it)
			if err != nil {
				return nil, err
			}
			frames = append(frames, frame{eng, c})
		}
	}
	err = probe("zstd_l3_dict_decompress", func() (int, error) {
		var n int
		var buf []byte
		for n < codecBytes {
			for _, f := range frames {
				out, err := f.eng.Decompress(buf[:0], f.comp)
				if err != nil {
					return n, err
				}
				buf = out
				n += len(out)
			}
		}
		return n, nil
	})
	return out, err
}

// compressAll compresses items round-robin until codecBytes of input were
// processed and returns the input byte count.
func compressAll(eng codec.Engine, items [][]byte) (int, error) {
	var n int
	var buf []byte
	for n < codecBytes {
		for _, it := range items {
			out, err := eng.Compress(buf[:0], it)
			if err != nil {
				return n, err
			}
			buf = out
			n += len(it)
		}
	}
	return n, nil
}

// hostRefMBps is the host-drift diagnostic: single-thread lz4-L1 over a
// fixed 256 KiB English-text buffer, independent of workload and seed. It
// normalises nothing; it lets a reader tell a slower host from a slower
// program.
func hostRefMBps() (float64, error) {
	buf := corpus.NewTextGen(1, 30000, 1.15).Generate(256 << 10)
	eng, err := codec.NewEngine("lz4", codec.WithLevel(1))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	n, err := compressAll(eng, [][]byte{buf})
	return float64(n) / time.Since(t0).Seconds() / 1e6, err
}
