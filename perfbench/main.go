// Command perfbench is the KV service's benchmark: it drives the pooled
// kv.DB surface (pool.Open) from one closed-loop client with no think
// time, checks every result against a model of its own, and prints one
// JSON object of metrics as the last line of its output.
//
//	perfbench --workload update-churn --seed 1 --seconds 10 --trace 0
//
// A run repeats whole rounds of the workload until --seconds have
// passed. Every round opens a fresh service, preloads it, runs the same
// seeded operations and checks them; host metrics are medians over the
// rounds, simulated metrics are those of the round, which must repeat
// exactly. --trace 1 alternates untraced and traced rounds and prints
// the per-layer metrics instead; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, printed by an
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_ops_per_s", "1/s"},
	{"host_heap_mb", "MB"},
	{"sim_ops_per_s", "1/s"},
	{"sim_read_mean_ns", "ns"},
	{"sim_write_ack_p50_ns", "ns"},
	{"sim_write_ack_p99_ns", "ns"},
}

// perLayer are the metrics of single layers, printed by a traced run.
var perLayer = []metricDef{
	{"pool.scan_calls_per_scan", "calls/scan"},
	{"pool.scan_discarded_per_scan", "pairs/scan"},
	{"pool.fanout_serial_ratio", "ratio"},
	{"kv.cache_hit_rate", "ratio"},
	{"kv.speculative_fills_per_read", "fills/read"},
	{"kv.cache_invalidations_per_write", "inval/write"},
	{"kv.writes_per_commit", "records/commit"},
	{"kv.commit_flush_mean_ns", "ns"},
	{"kv.commit_queue_mean_ns", "ns"},
	{"kv.issue_p50_ns", "ns"},
	{"kv.max_in_flight", "count"},
	{"kv.dropped_pending", "count"},
	{"kv.compactions", "count"},
	{"kv.compaction_mean_ns", "ns"},
	{"kv.reclaimed_per_compaction", "slots"},
	{"kv.recoveries", "count"},
	{"kv.recovery_mean_ns", "ns"},
	{"kv.migrations", "count"},
	{"kv.migrated_records", "count"},
	{"kv.max_mean_busy", "ratio"},
	{"memsim.gpfs", "count"},
	{"memsim.locs", "count"},
	{"memsim.ops_per_client_op", "prims/op"},
	{"memsim.loads_per_read", "loads/read"},
	{"memsim.flushes_per_write", "flushes/write"},
	{"host.get_us", "us"},
	{"host.multiget_us", "us"},
	{"host.scan_us", "us"},
	{"host.put_us", "us"},
	{"host.put_plain_us", "us"},
	{"host.put_commit_us", "us"},
	{"host.put_compact_ms", "ms"},
	{"host.recover_ms", "ms"},
	{"host.rebalance_ms", "ms"},
	{"host.alloc_bytes_per_op", "B/op"},
	{"host.gc_cycles", "count"},
	{"bench.harness_share", "ratio"},
	{"bench.trace_overhead_ops_per_s", "1/s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	// One client and one P: the garbage collector runs on the client's
	// CPU, so host figures do not depend on how busy the machine's other
	// CPUs are.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "", "workload to run (update-churn, read-mostly, scan-pooled)")
	seed := fs.Int64("seed", 1, "seed of the operation stream")
	seconds := fs.Float64("seconds", 10, "host seconds to keep starting rounds for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceOut := fs.String("trace-out", "", "directory a traced run writes its last round's spans and events to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if (*traced != 0 && *traced != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1, --seconds positive, and no positional arguments")
		return 2
	}
	res, tr, err := measure(sp, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if tr != nil && *traceOut != "" {
		if err := tr.write(*traceOut, fmt.Sprintf("%s-seed%d", sp.name, *seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure runs rounds of sp until d has passed (at least one round, and
// in a traced run at least one untraced and one traced round) and
// reduces them to the run's result.
func measure(sp *spec, seed int64, d time.Duration, traced bool) (*result, *trace, error) {
	start := time.Now()
	var plain, withTrace []*roundResult
	for i := 0; ; i++ {
		doTrace := traced && i%2 == 1
		rr, err := runRound(roundConfig{sp: sp, seed: seed, trace: doTrace})
		if err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", sp.name, i, err)
		}
		fmt.Fprintf(os.Stderr, "%s round %d: trace=%v setup %.3fs, %d ops in %.3fs inside DB calls of a %.3fs phase (%.0f ops/s), heap %.2f MB, %d violations\n",
			sp.name, i, doTrace, rr.setupS, rr.clientOps, rr.dbSec, rr.phaseSec, float64(rr.clientOps)/rr.dbSec, rr.heapMB, rr.violations)
		for _, v := range rr.first {
			fmt.Fprintln(os.Stderr, "  violation:", v)
		}
		if doTrace {
			withTrace = append(withTrace, rr)
		} else {
			plain = append(plain, rr)
		}
		if time.Since(start) >= d && (!traced || len(withTrace) > 0) {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]*roundResult(nil), plain...), withTrace...)
	for _, rr := range all {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		if rr.violations > 0 {
			res.Correct = false
		}
		// Simulated metrics depend on the seed alone: every round, traced
		// or not, must reproduce them exactly.
		if !reflect.DeepEqual(rr.sim, all[0].sim) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "simulated metrics differ between rounds of one seed: %v vs %v\n", rr.sim, all[0].sim)
		}
	}
	hostOps := func(rs []*roundResult) float64 {
		return median(rs, func(r *roundResult) float64 { return float64(r.clientOps) / r.dbSec })
	}
	values := map[string]float64{}
	if !traced {
		// Workloads with long rounds add set-ups of their own, so every
		// run takes setup_s as a median of at least minSetups.
		setups := make([]float64, 0, minSetups)
		for _, r := range plain {
			setups = append(setups, r.setupS)
		}
		for len(setups) < minSetups {
			runtime.GC()
			t0 := time.Now()
			if _, err := setUp(sp, nil, nil, -1); err != nil {
				return nil, nil, fmt.Errorf("%s set-up: %w", sp.name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		values["setup_s"] = medianOf(setups)
		values["host_ops_per_s"] = hostOps(plain)
		values["host_heap_mb"] = median(plain, func(r *roundResult) float64 { return r.heapMB })
		for k, v := range plain[0].sim {
			values[k] = v
		}
		return res.with(values, endToEnd), nil, nil
	}
	for _, def := range perLayer {
		values[def.name] = median(withTrace, func(r *roundResult) float64 { return r.layer[def.name] })
	}
	values["host.alloc_bytes_per_op"] = median(plain, func(r *roundResult) float64 { return float64(r.allocBytes) / float64(r.clientOps) })
	values["host.gc_cycles"] = median(plain, func(r *roundResult) float64 { return float64(r.gcCycles) })
	values["bench.harness_share"] = median(plain, func(r *roundResult) float64 { return (r.phaseSec - r.dbSec) / r.phaseSec })
	values["bench.trace_overhead_ops_per_s"] = hostOps(withTrace) - hostOps(plain)
	return res.with(values, perLayer), withTrace[len(withTrace)-1].trace, nil
}

// with fills the result's metrics from values in defs' order; a metric
// with no value marks the result incorrect, since the run failed to
// measure it.
func (res *result) with(values map[string]float64, defs []metricDef) *result {
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "metric %s was not measured\n", def.name)
			continue
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	return res
}

// minSetups is the fewest set-ups a run takes setup_s from.
const minSetups = 9

func median(rs []*roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
