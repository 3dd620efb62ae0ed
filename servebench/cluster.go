package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/datacomp/datacomp/internal/cluster"
	"github.com/datacomp/datacomp/internal/kvstore"
	"github.com/datacomp/datacomp/internal/telemetry"
)

// Three in-process nodes at N=3 with node defaults: lz4-L1+checksum rpc,
// zstd-L1 16 KiB blocks, SyncAlways on a MemPersister. Every node holds
// every key.
const (
	clusterNodes = 3
	replicas     = 3
)

type clusterTarget struct {
	c     *cluster.Cluster
	nodes []*cluster.Node
	keys  [][]byte
	m     *model
	conn  *connStats

	userBytes atomic.Int64 // key+value bytes of acked puts in the timed phase
	before    clusterCounters
}

func setupCluster(ctx context.Context, in *inputs, sp *spans) (target, error) {
	t := &clusterTarget{conn: &connStats{spans: sp}, m: newModel(in.preload)}
	t.c = cluster.New(cluster.WithReplication(replicas), cluster.WithDialWrapper(t.conn.wrap))
	for i := 0; i < clusterNodes; i++ {
		n, err := t.c.AddNode(ctx, fmt.Sprintf("n%d", i))
		if err != nil {
			t.close()
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	}
	t.keys = make([][]byte, len(in.preload))
	for k := range t.keys {
		t.keys[k] = fmt.Appendf(nil, "user:%08d", k)
	}
	if err := preload(len(t.keys), func(k int32) error { return t.c.Put(ctx, t.keys[k], in.preload[k]) }); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *clusterTarget) close() error { return t.c.Close() }

func (t *clusterTarget) exec(ctx context.Context, root span, o *op, r *recorder) error {
	key := t.keys[o.key]
	mu := &t.m.mu[o.key]
	if o.kind == opPut {
		mu.Lock()
		defer mu.Unlock()
		sp := root.child(layerCluster, "cluster.put")
		t0 := time.Now()
		err := t.c.Put(ctx, key, o.val)
		r.put = append(r.put, int64(time.Since(t0)))
		sp.end()
		t.m.record(o.key, o.val, err)
		if err != nil {
			return fmt.Errorf("put %s: %w", key, err)
		}
		t.userBytes.Add(int64(len(key) + len(o.val)))
		return nil
	}
	mu.RLock()
	defer mu.RUnlock()
	sp := root.child(layerCluster, "cluster.get")
	t0 := time.Now()
	got, found, err := t.c.Get(ctx, key)
	r.get = append(r.get, int64(time.Since(t0)))
	sp.end()
	if err != nil {
		return fmt.Errorf("get %s: %w", key, err)
	}
	if !t.m.check(o.key, got, found) {
		return fmt.Errorf("get %s: read (found=%v, %d bytes) disagrees with the acked writes", key, found, len(got))
	}
	return nil
}

// clusterCounters is one snapshot of every counter the cluster layers
// export: kvstore stats summed over nodes, the shared telemetry registry,
// and the benchmark's own conn wrapper.
type clusterCounters struct {
	kv        kvstore.Stats
	tel       telemetrySnap
	conn      connSnap
	userBytes int64
}

func (t *clusterTarget) counters() clusterCounters {
	var kv kvstore.Stats
	for _, n := range t.nodes {
		s := n.Store().Stats()
		kv.Puts += s.Puts
		kv.Gets += s.Gets
		kv.Flushes += s.Flushes
		kv.Compactions += s.Compactions
		kv.CompressTime += s.CompressTime
		kv.DecompressTime += s.DecompressTime
		kv.ReadTime += s.ReadTime
		kv.BlocksRead += s.BlocksRead
		kv.BlocksDecompressed += s.BlocksDecompressed
		kv.BlockCacheHits += s.BlockCacheHits
		kv.RawBytesWritten += s.RawBytesWritten
		kv.StoredBytesWritten += s.StoredBytesWritten
		kv.WALBytes += s.WALBytes
	}
	return clusterCounters{kv: kv, tel: readTelemetry(), conn: t.conn.snap(), userBytes: t.userBytes.Load()}
}

func (t *clusterTarget) mark() { t.before = t.counters() }

func (t *clusterTarget) finish(ops int) (layerResult, error) {
	a, b := t.before, t.counters()
	kv := func(f func(kvstore.Stats) int64) float64 { return float64(f(b.kv) - f(a.kv)) }
	tel := b.tel.sub(a.tel)
	conn := b.conn.sub(a.conn)
	userBytes := float64(b.userBytes - a.userBytes)

	puts := kv(func(s kvstore.Stats) int64 { return s.Puts })
	gets := kv(func(s kvstore.Stats) int64 { return s.Gets })
	stored := kv(func(s kvstore.Stats) int64 { return s.StoredBytesWritten })
	wal := kv(func(s kvstore.Stats) int64 { return s.WALBytes })
	decoded := kv(func(s kvstore.Stats) int64 { return s.BlocksDecompressed })
	hits := kv(func(s kvstore.Stats) int64 { return s.BlockCacheHits })
	nsOf := func(f func(kvstore.Stats) time.Duration) float64 { return float64(f(b.kv) - f(a.kv)) }

	m := zeroLayerMetrics()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("cluster.replica_calls_per_op", ratio(float64(tel.callHist.Count), float64(ops)))
	set("cluster.read_repairs_per_get", ratio(float64(tel.repairs), float64(tel.gets)))
	set("cluster.replica_errors", float64(tel.replicaErrors))
	set("rpc.dials", float64(b.conn.dials))
	set("rpc.wire_bytes_per_call", ratio(float64(tel.wireBytes), float64(tel.calls)))
	set("rpc.saved_frac", 1-ratio(float64(tel.wireBytes), float64(tel.rawBytes)))
	set("rpc.compress_ns_per_call", ratio(float64(tel.compressNS), float64(tel.callHist.Count)))
	set("rpc.decompress_ns_per_call", ratio(float64(tel.decompressNS), float64(tel.callHist.Count)))
	set("rpc.conn_write_wait_us_per_op", ratio(float64(conn.writeNS)/1e3, float64(ops)))
	set("rpc.call_p50_us", float64(tel.callHist.Quantile(0.5))/1e3)
	set("kvstore.compress_ns_per_put", ratio(nsOf(func(s kvstore.Stats) time.Duration { return s.CompressTime }), puts))
	set("kvstore.decompress_ns_per_get", ratio(nsOf(func(s kvstore.Stats) time.Duration { return s.DecompressTime }), gets))
	set("kvstore.read_ns_per_get", ratio(nsOf(func(s kvstore.Stats) time.Duration { return s.ReadTime }), gets))
	set("kvstore.flushes", kv(func(s kvstore.Stats) int64 { return s.Flushes }))
	set("kvstore.compactions", kv(func(s kvstore.Stats) int64 { return s.Compactions }))
	set("kvstore.write_amp", ratio(stored+wal, replicas*userBytes))
	set("kvstore.block_ratio", ratio(stored, kv(func(s kvstore.Stats) int64 { return s.RawBytesWritten })))
	set("kvstore.blocks_read_per_get", ratio(kv(func(s kvstore.Stats) int64 { return s.BlocksRead }), gets))
	set("kvstore.block_cache_hit_rate", ratio(hits, hits+decoded))
	set("kvstore.wal_bytes_per_put", ratio(wal, puts))

	perUser, err := t.storedPerUserByte()
	return layerResult{
		wireBytesPerOp:    ratio(float64(conn.bytes), float64(ops)),
		storedPerUserByte: perUser,
		metrics:           m,
	}, err
}

// storedPerUserByte flushes every memtable and divides the table bytes per
// replica by the live user bytes (key plus latest value of every key).
func (t *clusterTarget) storedPerUserByte() (float64, error) {
	var disk int64
	for _, n := range t.nodes {
		db := n.Store()
		if err := db.Flush(context.Background()); err != nil {
			return 0, fmt.Errorf("flush %s: %w", n.Name(), err)
		}
		disk += db.DiskBytes()
	}
	var live int64
	for k, v := range t.m.vals {
		live += int64(len(t.keys[k]) + len(v))
	}
	return ratio(float64(disk), float64(replicas*live)), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// connStats counts what crosses the cluster's client connections. Its wrap
// method is the cluster's dial wrapper, so every dial and byte is seen.
type connStats struct {
	spans   *spans
	dials   atomic.Int64
	bytes   atomic.Int64 // both directions
	writeNS atomic.Int64 // time Write blocked: a net.Pipe write waits for the node to read
}

type connSnap struct{ dials, bytes, writeNS int64 }

func (s *connStats) snap() connSnap {
	return connSnap{s.dials.Load(), s.bytes.Load(), s.writeNS.Load()}
}

func (a connSnap) sub(b connSnap) connSnap {
	return connSnap{a.dials - b.dials, a.bytes - b.bytes, a.writeNS - b.writeNS}
}

func (s *connStats) wrap(node string, dial func(context.Context) (io.ReadWriter, error)) func(context.Context) (io.ReadWriter, error) {
	return func(ctx context.Context) (io.ReadWriter, error) {
		rw, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		// Keep the net.Conn so rpc still maps deadlines onto the conn.
		nc, ok := rw.(net.Conn)
		if !ok {
			return nil, fmt.Errorf("dial %s: got %T, want a net.Conn", node, rw)
		}
		s.dials.Add(1)
		return &countedConn{Conn: nc, s: s}, nil
	}
}

type countedConn struct {
	net.Conn
	s *connStats
}

func (c *countedConn) Write(p []byte) (int, error) {
	sp := c.s.spans.root(layerConnWrite, "conn.write")
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.s.writeNS.Add(int64(time.Since(t0)))
	sp.end()
	c.s.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Read(p []byte) (int, error) {
	sp := c.s.spans.root(layerConnRead, "conn.read")
	n, err := c.Conn.Read(p)
	sp.end()
	c.s.bytes.Add(int64(n))
	return n, err
}

// telemetrySnap holds the rpc_* and cluster_* series of the shared
// registry that the layer metrics difference.
type telemetrySnap struct {
	calls, rawBytes, wireBytes, compressNS, decompressNS int64
	gets, repairs, replicaErrors                         int64
	callHist                                             telemetry.Snapshot
}

func readTelemetry() telemetrySnap {
	r := telemetry.Default
	c := func(name string) int64 { return r.Counter(name, "").Value() }
	return telemetrySnap{
		calls:         c("rpc_calls_total"),
		rawBytes:      c("rpc_raw_bytes_total"),
		wireBytes:     c("rpc_wire_bytes_total"),
		compressNS:    c("rpc_compress_ns_total"),
		decompressNS:  c("rpc_decompress_ns_total"),
		gets:          c("cluster_gets_total"),
		repairs:       c("cluster_read_repairs_total"),
		replicaErrors: c("cluster_replica_errors_total"),
		callHist:      r.Histogram("rpc_call_ns", "", "ns").Snapshot(),
	}
}

// sub returns a−b; the histogram difference keeps only the buckets that
// gained observations between the snapshots.
func (a telemetrySnap) sub(b telemetrySnap) telemetrySnap {
	d := telemetrySnap{
		calls:         a.calls - b.calls,
		rawBytes:      a.rawBytes - b.rawBytes,
		wireBytes:     a.wireBytes - b.wireBytes,
		compressNS:    a.compressNS - b.compressNS,
		decompressNS:  a.decompressNS - b.decompressNS,
		gets:          a.gets - b.gets,
		repairs:       a.repairs - b.repairs,
		replicaErrors: a.replicaErrors - b.replicaErrors,
	}
	prev := map[int64]int64{}
	for _, bk := range b.callHist.Buckets {
		prev[bk.Lower] = bk.Count
	}
	for _, bk := range a.callHist.Buckets {
		if n := bk.Count - prev[bk.Lower]; n > 0 {
			bk.Count = n
			d.callHist.Buckets = append(d.callHist.Buckets, bk)
			d.callHist.Count += n
		}
	}
	if n := len(d.callHist.Buckets); n > 0 {
		d.callHist.Min = d.callHist.Buckets[0].Lower
		d.callHist.Max = d.callHist.Buckets[n-1].Upper
	}
	return d
}
