package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/obs"
)

// trace keeps one round's host spans and obs events in memory. Spans are
// taken from the benchmark's side of each call into the service; events
// come from an obs.Recorder subscribed through Router.Observe and are
// polled after every call, so each span knows the events it caused.
type trace struct {
	epoch  time.Time
	spans  []span
	events []obs.Event
	bus    *obs.Bus
	sub    *obs.Sub
}

// span is one host-timed interval: name, start, end (ns since the
// trace's epoch) and the index of the span that caused it (-1 for none).
type span struct {
	name       string
	start, end int64
	parent     int
}

// busSize bounds the events one call can publish before the benchmark
// polls them; detach reports an overflow as an error.
const busSize = 1 << 16

func newTrace() *trace { return &trace{epoch: time.Now()} }

// begin opens a span; on a nil trace it does nothing.
func (t *trace) begin(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: at.Sub(t.epoch).Nanoseconds(), end: -1, parent: parent})
	return len(t.spans) - 1
}

func (t *trace) end(i int, at time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = at.Sub(t.epoch).Nanoseconds()
}

func (t *trace) attach(svc service) {
	t.bus = obs.NewBus(busSize)
	t.sub = t.bus.Subscribe()
	svc.Observe(obs.NewRecorder(t.bus, nil))
}

func (t *trace) detach(svc service) error {
	t.events = append(t.events, t.sub.Poll(0)...)
	svc.Observe(nil)
	t.sub.Close()
	if n := t.sub.Dropped(); n > 0 {
		return fmt.Errorf("trace: %d events overflowed the %d-event bus", n, busSize)
	}
	return nil
}

// op records one measured call and the events it published. A Put during
// which a compaction or a commit flush ran is named for it.
func (t *trace) op(name string, parent int, start, end time.Time) {
	evs := t.sub.Poll(0)
	if name == "put" {
		for _, e := range evs {
			if e.Kind == obs.KindCompaction {
				name = "put.compact"
				break
			}
			if e.Kind == obs.KindCommit {
				name = "put.commit"
			}
		}
	}
	t.events = append(t.events, evs...)
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(), parent: parent})
}

// spanMean returns the mean duration of the spans with one of the names,
// in the unit given in nanoseconds, and how many there were.
func (t *trace) spanMean(unit float64, names ...string) (float64, int) {
	total, n := 0.0, 0
	for _, s := range t.spans {
		for _, name := range names {
			if s.name == name {
				total += float64(s.end - s.start)
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return total / float64(n) / unit, n
}

// layerMetrics derives the per-layer metrics of a traced round from its
// spans and events, with the counters the events do not carry taken
// from the service's Metrics and the memsim primitive counts.
func (t *trace) layerMetrics(d *client, met kv.Metrics, memBefore, memAfter map[core.Op]uint64, svc service) map[string]float64 {
	out := map[string]float64{}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Host spans around calls into pool.Router.
	const us, ms = 1e3, 1e6
	out["host.get_us"], _ = t.spanMean(us, "get")
	out["host.multiget_us"], _ = t.spanMean(us, "multiget")
	out["host.scan_us"], _ = t.spanMean(us, "scan")
	out["host.put_us"], _ = t.spanMean(us, "put", "put.commit", "put.compact")
	out["host.put_plain_us"], _ = t.spanMean(us, "put")
	out["host.put_commit_us"], _ = t.spanMean(us, "put.commit")
	out["host.put_compact_ms"], _ = t.spanMean(ms, "put.compact")
	out["host.recover_ms"], _ = t.spanMean(ms, "recover")
	out["host.rebalance_ms"], _ = t.spanMean(ms, "rebalance")
	_, clientScans := t.spanMean(1, "scan")
	_, writes := t.spanMean(1, "put", "put.commit", "put.compact")
	reads := float64(d.reads)

	// Events.
	var storeScans, hits, misses, spec, commits, compactions, recoveries, migrations int
	var legFetched, merged, commitN, reclaimed, migrated int
	var flushNS, queueNS, recoverNS float64
	maxDepth := 0
	type fan struct{ sum, max float64 }
	var fans []fan
	fanOf := map[uint64]int{} // parent span -> index into fans
	for _, e := range t.events {
		switch e.Kind {
		case obs.KindOp:
			if e.Op != obs.OpScan && e.Op != obs.OpMultiGet {
				continue
			}
			switch {
			case e.Parent != 0: // a router fan-out leg
				i, ok := fanOf[e.Parent]
				if !ok {
					i = len(fans)
					fans = append(fans, fan{})
					fanOf[e.Parent] = i
				}
				f := &fans[i]
				dur := e.EndNS - e.StartNS
				f.sum += dur
				if dur > f.max {
					f.max = dur
				}
				if e.Op == obs.OpScan {
					legFetched += e.N
				}
			case e.Cluster < 0: // a router fan-out parent
				if e.Op == obs.OpScan {
					merged += e.N
				}
			case e.Op == obs.OpScan: // a store-level scan call
				storeScans++
			}
		case obs.KindCacheHit:
			hits++
		case obs.KindCacheMiss:
			misses++
		case obs.KindSpeculative:
			spec++
		case obs.KindCommit:
			commits++
			commitN += e.N
			flushNS += e.EndNS - e.StartNS
			queueNS += e.QueueNS
			if e.Depth > maxDepth {
				maxDepth = e.Depth
			}
		case obs.KindCompaction:
			if e.Step == kv.StepAfterReclaim.String() {
				compactions++
				reclaimed += e.Lost
			}
		case obs.KindRecover:
			recoveries++
			recoverNS += e.EndNS - e.StartNS
		case obs.KindMigration:
			if e.Step == kv.StepAfterFlip.String() {
				migrations++
				migrated += e.N
			}
		}
	}
	var fanSum, fanMax float64
	for _, f := range fans {
		fanSum += f.sum
		fanMax += f.max
	}

	out["pool.scan_calls_per_scan"] = ratio(float64(storeScans), float64(clientScans))
	out["pool.scan_discarded_per_scan"] = ratio(float64(legFetched-merged), float64(clientScans))
	out["pool.fanout_serial_ratio"] = ratio(fanSum, fanMax)

	out["kv.cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out["kv.speculative_fills_per_read"] = ratio(float64(spec), reads)
	out["kv.cache_invalidations_per_write"] = ratio(float64(met.CacheInvalidations), float64(writes))

	out["kv.writes_per_commit"] = ratio(float64(commitN), float64(commits))
	out["kv.commit_flush_mean_ns"] = ratio(flushNS, float64(commits))
	out["kv.commit_queue_mean_ns"] = ratio(queueNS, float64(commits))
	out["kv.issue_p50_ns"] = 0
	if len(met.IssueLatencies) > 0 {
		out["kv.issue_p50_ns"] = quantile(met.IssueLatencies, 0.5)
	}
	out["kv.max_in_flight"] = float64(maxDepth)
	out["kv.dropped_pending"] = float64(met.DroppedPending)

	out["kv.compactions"] = float64(compactions)
	compactNS := 0.0
	for _, ns := range met.CompactionNS {
		compactNS += ns
	}
	out["kv.compaction_mean_ns"] = ratio(compactNS, float64(len(met.CompactionNS)))
	out["kv.reclaimed_per_compaction"] = ratio(float64(reclaimed), float64(compactions))
	out["kv.recoveries"] = float64(recoveries)
	out["kv.recovery_mean_ns"] = ratio(recoverNS, float64(recoveries))
	out["kv.migrations"] = float64(migrations)
	out["kv.migrated_records"] = float64(migrated)
	out["kv.max_mean_busy"] = met.MaxMeanBusyRatio()

	var prims, flushes uint64
	for op, n := range memAfter { // order-insensitive sums
		delta := n - memBefore[op]
		prims += delta
		switch op {
		case core.OpLFlush, core.OpRFlush, core.OpRFlushRange, core.OpGPF:
			flushes += delta
		}
	}
	locs := 0
	for c := 0; c < svc.NumClusters(); c++ {
		locs += svc.Cluster(c).Cluster().Topology().NumLocs()
	}
	out["memsim.gpfs"] = float64(memAfter[core.OpGPF] - memBefore[core.OpGPF])
	out["memsim.locs"] = float64(locs)
	out["memsim.ops_per_client_op"] = ratio(float64(prims), float64(d.clientOps))
	out["memsim.loads_per_read"] = ratio(float64(memAfter[core.OpLoad]-memBefore[core.OpLoad]), reads)
	out["memsim.flushes_per_write"] = ratio(float64(flushes), float64(writes))
	return out
}

// write stores the trace as two gzipped files in dir: spans as CSV
// (name, start_ns, end_ns, parent) and events as JSON lines.
func (t *trace) write(dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeGz(filepath.Join(dir, base+".spans.csv.gz"), func(w *bufio.Writer) error {
		if _, err := fmt.Fprintln(w, "id,name,start_ns,end_ns,parent"); err != nil {
			return err
		}
		for i, s := range t.spans {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeGz(filepath.Join(dir, base+".events.jsonl.gz"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, e := range t.events {
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeGz(path string, body func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	if err := body(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
