package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
	"cxl0/internal/pool"
)

// service is what the benchmark drives: the kv.DB surface plus the
// router's per-cluster inspection, which the simulated fan-out read
// latency needs, and the observer hook of the traced run. *pool.Router
// implements it; the checker self-test wraps it to inject faults.
type service interface {
	kv.DB
	NumClusters() int
	Cluster(c int) *kv.Store
	Observe(rec *obs.Recorder)
}

// infKey is the exclusive upper bound of every Scan: no key is above it.
const infKey = core.Val(math.MaxInt64)

// preloadBatch is the number of keys one preload Apply writes: a bulk
// load commits each touched shard once per batch.
const preloadBatch = 1024

// roundConfig selects one round.
type roundConfig struct {
	sp    *spec
	seed  int64
	trace bool
	// wrap, when set, interposes on the service after Open.
	wrap func(service) service
}

// roundResult is one round's measurements and checks.
type roundResult struct {
	setupS float64
	// clientOps counts client operations; attempted adds the
	// control-plane calls (crash, recover, rebalance, the final sync).
	clientOps, attempted, failed int
	dbSec                        float64 // host time inside DB calls, measured phase
	phaseSec                     float64 // host time of the whole measured phase
	heapMB                       float64
	allocBytes                   uint64
	gcCycles                     uint32

	// sim holds the simulated end-to-end metrics; layer the per-layer
	// metrics of a traced round.
	sim   map[string]float64
	layer map[string]float64
	trace *trace

	violations int
	first      []string
}

// runRound opens the service, preloads it, runs one measured phase of
// the workload and checks every result against the model.
func runRound(rc roundConfig) (*roundResult, error) {
	sp := rc.sp
	res := &roundResult{}
	var tr *trace
	if rc.trace {
		tr = newTrace()
		res.trace = tr
	}
	st := newStream(sp, rc.seed)
	runtime.GC()

	t0 := time.Now()
	root := tr.begin("round", -1, t0)
	svc, err := setUp(sp, rc.wrap, tr, root)
	if err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()

	m := newModel(sp.keys, svc.NumShards(), sp.cfg.Store.PipelineDepth <= 1)
	for k := 0; k < sp.keys; k++ {
		m.preloaded(core.Val(k), core.Val(k+1))
	}
	d := &client{svc: svc, shards: shardRefs(svc), nextVal: core.Val(sp.keys + 1), clocks: make([]float64, svc.NumClusters())}
	if len(d.shards) != svc.NumShards() {
		return nil, fmt.Errorf("%d shards over the clusters, but the service reports %d", len(d.shards), svc.NumShards())
	}

	// Warm-up: the first operations of the stream fill the read caches
	// and are checked but not measured; a Sync closes them, so every
	// write the measured phase counts is also issued in it.
	tw := time.Now()
	for i := 0; i < sp.warmOps; i++ {
		d.do(st.next(), m)
	}
	d.sync(m)
	tr.end(tr.begin("warmup", root, tw), time.Now())
	d.clientOps, d.dbSec, d.reads, d.readNS = 0, 0, 0, 0
	m.writes = 0

	svc.ResetMetrics()
	memBefore := memsimStats(svc)
	if tr != nil {
		tr.attach(svc)
		d.tr = tr
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore, gcBefore := ms.TotalAlloc, ms.NumGC

	// Measured phase.
	tm := time.Now()
	d.parent = tr.begin("measure", root, tm)
	crashes := 0
	for i := 0; i < sp.ops; i++ {
		d.do(st.next(), m)
		if sp.crashEvery > 0 && (i+1)%sp.crashEvery == 0 {
			g := crashes % svc.NumShards()
			crashes++
			t := time.Now()
			svc.Crash(g)
			d.record("crash", t)
			m.crashed(g)
			t = time.Now()
			_, err := svc.Recover(g)
			d.record("recover", t)
			d.ok(err)
		}
		if sp.rebalanceEvery > 0 && (i+1)%sp.rebalanceEvery == 0 {
			t := time.Now()
			_, err := svc.Rebalance()
			d.record("rebalance", t)
			d.ok(err)
		}
	}
	d.sync(m)
	tend := time.Now()
	tr.end(d.parent, tend)
	runtime.ReadMemStats(&ms)
	res.allocBytes, res.gcCycles = ms.TotalAlloc-allocBefore, ms.NumGC-gcBefore
	res.phaseSec = tend.Sub(tm).Seconds()
	res.clientOps, res.attempted, res.failed, res.dbSec = d.clientOps, d.attempted, d.failed, d.dbSec
	if tr != nil {
		if err := tr.detach(svc); err != nil {
			return nil, err
		}
	}
	met := svc.Metrics()
	memAfter := memsimStats(svc)

	// Final check: a full read of the keyspace equals the model, and
	// every write issued was either acknowledged or dropped by a crash.
	tc := time.Now()
	checkFinal(svc, m)
	if got := met.Acked + met.DroppedPending; got != m.writes {
		m.violate("metrics: acked %d + dropped %d = %d, but %d writes were issued", met.Acked, met.DroppedPending, got, m.writes)
	}
	if met.DroppedPending < m.dropped || met.DroppedPending > m.orphaned {
		m.violate("metrics: %d dropped writes, but reads proved %d dropped of %d orphaned by crashes", met.DroppedPending, m.dropped, m.orphaned)
	}
	tr.end(tr.begin("check", root, tc), time.Now())

	res.sim = simMetrics(d, met)
	if tr != nil {
		res.layer = tr.layerMetrics(d, met, memBefore, memAfter, svc)
	}
	res.violations, res.first = m.violations, m.first

	// Live heap retained by the service: the heap with it open, minus
	// the heap once it is released (the model stays alive in both).
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	runtime.KeepAlive(svc)
	svc, d.svc, d.shards = nil, nil, nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.heapMB = (float64(with) - float64(ms.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(m)
	tr.end(root, time.Now())
	return res, nil
}

// setUp opens the service, preloads keys 0..keys-1 (key k holds k+1) and
// syncs: the set-up that setup_s times. wrap, when set, interposes on the
// service before the preload.
func setUp(sp *spec, wrap func(service) service, tr *trace, parent int) (service, error) {
	t0 := time.Now()
	setup := tr.begin("setup", parent, t0)
	router, err := pool.Open(sp.cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	tr.end(tr.begin("open", setup, t0), time.Now())
	var svc service = router
	if wrap != nil {
		svc = wrap(router)
	}
	tp := time.Now()
	for lo := 0; lo < sp.keys; lo += preloadBatch {
		var b kv.Batch
		for k := lo; k < lo+preloadBatch && k < sp.keys; k++ {
			b.Put(core.Val(k), core.Val(k+1))
		}
		if _, err := svc.Apply(&b); err != nil {
			return nil, fmt.Errorf("preload keys from %d: %w", lo, err)
		}
	}
	tr.end(tr.begin("preload", setup, tp), time.Now())
	ts := time.Now()
	if err := svc.Sync(); err != nil {
		return nil, fmt.Errorf("preload sync: %w", err)
	}
	t1 := time.Now()
	tr.end(tr.begin("sync", setup, ts), t1)
	tr.end(setup, t1)
	return svc, nil
}

// checkFinal reads every key the model knows with MultiGet, then the
// whole keyspace with one unlimited Scan, and checks both against the
// model and each other.
func checkFinal(svc service, m *model) {
	got := make(map[core.Val]core.Val, len(m.keys))
	const chunk = 256
	keys := make([]core.Val, 0, chunk)
	for lo := 0; lo < len(m.keys); lo += chunk {
		keys = keys[:0]
		for k := lo; k < lo+chunk && k < len(m.keys); k++ {
			keys = append(keys, core.Val(k))
		}
		ls, err := svc.MultiGet(keys)
		if err != nil {
			m.violate("final multiget: %v", err)
			return
		}
		for _, l := range ls {
			if l.Found {
				got[l.Key] = l.Val
			}
		}
	}
	m.final(got)
	ps, err := svc.Scan(0, infKey, 0)
	if err != nil {
		m.violate("final scan: %v", err)
		return
	}
	if len(ps) != len(got) {
		m.violate("final scan: %d pairs, multiget found %d keys", len(ps), len(got))
	}
	for i, p := range ps {
		if i > 0 && p.Key <= ps[i-1].Key {
			m.violate("final scan: key %d after %d", p.Key, ps[i-1].Key)
			return
		}
		if v, ok := got[p.Key]; !ok || v != p.Val {
			m.violate("final scan: key %d = %d, multiget read %d (found %v)", p.Key, p.Val, v, ok)
			return
		}
	}
}

// client is the closed-loop client: it issues each operation when the
// previous one returned, times every DB call and collects the simulated
// read latencies.
type client struct {
	svc     service
	shards  []shardRef
	tr      *trace
	parent  int
	nextVal core.Val // the next value to write: unique and increasing

	clientOps, attempted, failed int
	dbSec                        float64

	// clocks are the per-cluster simulated clocks before the current
	// read; reads counts served reads and readNS sums their simulated
	// latencies, a fan-out counted as its slowest cluster leg.
	clocks []float64
	reads  int
	readNS float64
}

func (d *client) ok(err error) bool {
	if err != nil {
		d.failed++
		if d.failed <= maxReported {
			fmt.Fprintf(os.Stderr, "operation failed: %v\n", err)
		}
		return false
	}
	return true
}

func (d *client) simStart() {
	for c := range d.clocks {
		d.clocks[c] = d.svc.Cluster(c).NowNS()
	}
}

// simRead records a served read: its latency is the slowest cluster's
// clock advance since simStart.
func (d *client) simRead() {
	makespan := 0.0
	for c := range d.clocks {
		if dt := d.svc.Cluster(c).NowNS() - d.clocks[c]; dt > makespan {
			makespan = dt
		}
	}
	d.reads++
	d.readNS += makespan
}

func (d *client) record(name string, start time.Time) {
	end := time.Now()
	d.dbSec += end.Sub(start).Seconds()
	d.attempted++
	if d.tr != nil {
		d.tr.op(name, d.parent, start, end)
	}
}

// do issues one client operation and checks its result against m.
func (d *client) do(o op, m *model) {
	svc := d.svc
	switch o.kind {
	case opGet:
		d.simStart()
		t := time.Now()
		v, ok, err := svc.Get(o.key)
		d.record("get", t)
		if d.ok(err) {
			d.simRead()
			m.read("get", o.key, v, ok)
		}
	case opMultiGet:
		d.simStart()
		t := time.Now()
		ls, err := svc.MultiGet(o.keys)
		d.record("multiget", t)
		if d.ok(err) {
			d.simRead()
			if len(ls) != len(o.keys) {
				m.violate("multiget: %d lookups for %d keys", len(ls), len(o.keys))
			}
			for j := 0; j < len(ls) && j < len(o.keys); j++ {
				if ls[j].Key != o.keys[j] {
					m.violate("multiget: lookup %d is key %d, asked %d", j, ls[j].Key, o.keys[j])
					continue
				}
				m.read("multiget", ls[j].Key, ls[j].Val, ls[j].Found)
			}
		}
	case opPut, opInsert:
		v := d.nextVal
		d.nextVal++
		t := time.Now()
		ack, err := svc.Put(o.key, v)
		d.record("put", t)
		if d.ok(err) {
			m.wrote(o.key, v, ack, d.epoch(ack.Shard))
		}
	case opScan:
		d.simStart()
		t := time.Now()
		ps, err := svc.Scan(o.key, infKey, o.limit)
		d.record("scan", t)
		if d.ok(err) {
			d.simRead()
			m.scan(o.key, o.limit, ps)
		}
	default:
		panic(fmt.Sprintf("unknown op kind %d", o.kind))
	}
	d.clientOps++
	// Any operation may retire in-flight commits, on any shard it
	// touched.
	d.watermarks(m)
}

// shardRef locates a global shard: its cluster's store and its index
// there.
type shardRef struct {
	st    *kv.Store
	local int
}

// shardRefs lists svc's shards in global order: the router numbers a
// cluster's shards after those of every earlier cluster.
func shardRefs(svc service) []shardRef {
	var out []shardRef
	for c := 0; c < svc.NumClusters(); c++ {
		st := svc.Cluster(c)
		for l := 0; l < st.NumShards(); l++ {
			out = append(out, shardRef{st, l})
		}
	}
	return out
}

// epoch returns the snapshot epoch of global shard g's log (0 for a
// shard the service does not have; the model reports the bad Ack).
func (d *client) epoch(g int) uint64 {
	if g < 0 || g >= len(d.shards) {
		return 0
	}
	return d.shards[g].st.SnapshotEpoch(d.shards[g].local)
}

// watermarks reports every shard's acked-watermark to the model.
func (d *client) watermarks(m *model) {
	for g, s := range d.shards {
		m.retired(g, s.st.SnapshotEpoch(s.local), s.st.AckedCount(s.local))
	}
}

// sync issues a Sync; once it succeeded every write so far is durable.
func (d *client) sync(m *model) {
	t := time.Now()
	err := d.svc.Sync()
	d.record("sync", t)
	if d.ok(err) {
		m.synced()
	}
}

// simMetrics derives the simulated end-to-end metrics of a round.
func simMetrics(d *client, met kv.Metrics) map[string]float64 {
	out := map[string]float64{}
	if span := met.MaxBusyNS(); span > 0 {
		out["sim_ops_per_s"] = float64(d.clientOps) / (span * 1e-9)
	}
	if d.reads > 0 {
		out["sim_read_mean_ns"] = d.readNS / float64(d.reads)
	}
	if len(met.WriteLatencies) > 0 {
		out["sim_write_ack_p50_ns"] = quantile(met.WriteLatencies, 0.50)
		out["sim_write_ack_p99_ns"] = quantile(met.WriteLatencies, 0.99)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// memsimStats sums the simulated primitive counts over every cluster.
func memsimStats(svc service) map[core.Op]uint64 {
	out := map[core.Op]uint64{}
	for c := 0; c < svc.NumClusters(); c++ {
		for op, n := range svc.Cluster(c).Cluster().Stats() {
			out[op] += n
		}
	}
	return out
}
