package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

// short returns a copy of sp with a round small enough for a unit test
// that still crashes, recovers and rebalances several times.
func short(sp *spec) *spec {
	c := *sp
	c.warmOps = 500
	c.ops = 4000
	if c.crashEvery > 0 {
		c.crashEvery = 1000
	}
	if c.rebalanceEvery > 0 {
		c.rebalanceEvery = 700
	}
	if c.scanPct > 0 {
		c.ops = 1000
	}
	return &c
}

func TestShortRoundsPass(t *testing.T) {
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			rr, err := runRound(roundConfig{sp: short(sp), seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if rr.failed != 0 || rr.violations != 0 {
				t.Fatalf("%d of %d operations failed, %d violations: %v", rr.failed, rr.attempted, rr.violations, rr.first)
			}
			for _, def := range endToEnd {
				if def.name == "setup_s" || def.name == "host_ops_per_s" || def.name == "host_heap_mb" {
					continue
				}
				if v, ok := rr.sim[def.name]; !ok || v <= 0 {
					t.Errorf("%s = %v (measured %v), want > 0", def.name, v, ok)
				}
			}
		})
	}
}

// TestSimulatedMetricsRepeat pins the determinism the benchmark's
// simulated metrics rely on: the same seed gives the same figures, with
// tracing on or off.
func TestSimulatedMetricsRepeat(t *testing.T) {
	sp := short(workloads[0])
	a, err := runRound(roundConfig{sp: sp, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRound(roundConfig{sp: sp, seed: 3, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.sim, b.sim) {
		t.Fatalf("same seed, different simulated metrics:\n%v\n%v", a.sim, b.sim)
	}
	for _, def := range perLayer {
		if _, ok := b.layer[def.name]; !ok && def.name != "host.alloc_bytes_per_op" && def.name != "host.gc_cycles" &&
			def.name != "bench.harness_share" && def.name != "bench.trace_overhead_ops_per_s" {
			t.Errorf("traced round did not derive %s", def.name)
		}
	}
}

// faulty wraps the service and falsifies exactly one result.
type faulty struct {
	service
	gets, scans int
	// corruptGet, corruptScan and hideScan pick the 1-based call whose
	// result is falsified (0: none). A scan is only counted when it
	// returned at least two pairs.
	corruptGet, corruptScan, hideScan int
	// staleGet, when set, makes the first Get from call staleGet on
	// answer with the previous value the client put to the key instead
	// of its newest one. It picks a key whose newest write was
	// acknowledged durable before the call and which no Get has
	// returned since, so only the check against the newest durable write
	// can catch it. staled records that it did.
	staleGet int
	staled   bool
	writes   map[core.Val][]faultyWrite
	lastGot  map[core.Val]core.Val
}

// faultyWrite is one Put the wrapper passed on, and where its Ack put it.
type faultyWrite struct {
	val   core.Val
	ref   shardRef
	seq   int
	epoch uint64
}

func (f *faulty) Put(k, v core.Val) (kv.Ack, error) {
	ack, err := f.service.Put(k, v)
	if err == nil && f.staleGet > 0 {
		if f.writes == nil {
			f.writes = map[core.Val][]faultyWrite{}
		}
		ref := shardRefs(f.service)[ack.Shard]
		f.writes[k] = append(f.writes[k], faultyWrite{v, ref, ack.Seq, ref.st.SnapshotEpoch(ref.local)})
	}
	return ack, err
}

// Crash forgets every write: whether one a crash orphaned survived only a
// later read can tell, so none is eligible for a stale answer.
func (f *faulty) Crash(g int) {
	f.writes = nil
	f.service.Crash(g)
}

// ackedNewest reports whether k's newest write is acknowledged durable:
// below its shard's acked-watermark, or in a log a compaction folded.
func (f *faulty) ackedNewest(k core.Val) bool {
	ws := f.writes[k]
	if len(ws) < 2 {
		return false
	}
	w := ws[len(ws)-1]
	return w.epoch < w.ref.st.SnapshotEpoch(w.ref.local) || w.seq < w.ref.st.AckedCount(w.ref.local)
}

// bogus is a value the benchmark never writes.
const bogus = core.Val(1) << 50

func (f *faulty) Get(k core.Val) (core.Val, bool, error) {
	eligible := f.staleGet > 0 && !f.staled && f.ackedNewest(k)
	v, ok, err := f.service.Get(k)
	if ok {
		f.gets++
		if f.gets == f.corruptGet {
			v = bogus
		}
		if ws := f.writes[k]; eligible && f.gets >= f.staleGet && v == ws[len(ws)-1].val && f.lastGot[k] < v {
			v = ws[len(ws)-2].val
			f.staled = true
		}
		if f.lastGot == nil {
			f.lastGot = map[core.Val]core.Val{}
		}
		if v > f.lastGot[k] {
			f.lastGot[k] = v
		}
	}
	return v, ok, err
}

func (f *faulty) Scan(lo, hi core.Val, limit int) ([]kv.Pair, error) {
	ps, err := f.service.Scan(lo, hi, limit)
	if len(ps) >= 2 {
		f.scans++
		switch f.scans {
		case f.corruptScan:
			ps[1].Val = bogus
		case f.hideScan:
			ps = ps[1:]
		}
	}
	return ps, err
}

func TestCheckerCatchesFaults(t *testing.T) {
	byName := map[string]*spec{}
	for _, sp := range workloads {
		byName[sp.name] = sp
	}
	cases := []struct {
		name     string
		workload string
		f        faulty
		// caught, when set, is a part of the first violation reported.
		caught string
	}{
		{"corrupt get value", "update-churn", faulty{corruptGet: 1500}, ""},
		{"corrupt get value", "read-mostly", faulty{corruptGet: 1500}, ""},
		{"corrupt scan value", "scan-pooled", faulty{corruptScan: 700}, ""},
		{"hide durable key from scan", "scan-pooled", faulty{hideScan: 700}, ""},
		{"stale get of an acked write", "update-churn", faulty{staleGet: 1500}, "is not the durable"},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.name, func(t *testing.T) {
			f := c.f
			rr, err := runRound(roundConfig{sp: short(byName[c.workload]), seed: 11, wrap: func(s service) service {
				f.service = s
				return &f
			}})
			if err != nil {
				t.Fatal(err)
			}
			if f.gets < f.corruptGet || f.scans < f.corruptScan || f.scans < f.hideScan || f.staleGet > 0 && !f.staled {
				t.Fatalf("the fault was never injected (%d gets, %d scans)", f.gets, f.scans)
			}
			if rr.violations == 0 {
				t.Fatal("the checker accepted a falsified result")
			}
			if c.caught != "" && !strings.Contains(rr.first[0], c.caught) {
				t.Fatalf("caught by another check than expected (%q): %v", c.caught, rr.first)
			}
			t.Logf("caught: %v", rr.first)
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Error(err)
		} else if sp.why != w.Why {
			t.Errorf("%s: BENCHMARK.json says why %q, the benchmark %q", w.Name, w.Why, sp.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "update-churn", "--trace", "2"},
		{"--workload", "update-churn", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, new(nopWriter)); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}

type nopWriter struct{}

func (*nopWriter) Write(p []byte) (int, error) { return len(p), nil }
