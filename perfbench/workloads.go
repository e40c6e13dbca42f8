package main

import (
	"fmt"
	"sort"
	"strings"

	"cxl0/internal/kv"
	"cxl0/internal/pool"
)

// spec is one benchmark workload: the service configuration, the
// preloaded keyspace, the operation mix of one round and its control-plane
// cadence. Every round of a workload issues exactly the same operations
// for a given seed, so simulated metrics repeat exactly and the share of
// failed operations is a property of the program, not of the run length.
type spec struct {
	name string
	why  string
	cfg  pool.Config

	// keys is the preloaded keyspace: keys 0..keys-1, each written once
	// before measurement. Inserts add keys keys, keys+1, ... in order.
	keys int
	// warmOps client operations precede the measured phase of a round
	// (checked, not measured), so it starts with warm read caches; ops is
	// the number of client operations in the measured phase.
	warmOps, ops int

	// Operation mix in percent; the shares sum to 100. Get, MultiGet,
	// Put and Scan start keys are zipfian over the preloaded keyspace.
	getPct, multiGetPct, putPct, scanPct, insertPct int
	multiGetKeys                                    int
	maxScan                                         int

	// crashEvery crashes and immediately recovers one shard (rotating
	// over all shards) after every crashEvery client operations;
	// rebalanceEvery runs one load-aware rebalance check after every
	// rebalanceEvery. 0 disables either.
	crashEvery, rebalanceEvery int
}

// The workloads. Sizes are chosen so one round takes on the order of a
// second of host time on a 2-vCPU machine and setup takes hundreds of
// milliseconds; README.md records the make-up and the reasons. A change
// that makes one workload much faster should re-size it in a benchmark
// change of its own.
var workloads = []*spec{
	{
		name: "update-churn",
		why:  "YCSB-A on one cluster: write path, ranged commit pipeline, auto-compaction, crash recovery and bucket migration",
		cfg: pool.Config{Clusters: 1, Store: kv.Config{
			Shards: 4, Strategy: kv.RangedCommit, PipelineDepth: 2,
			Capacity: 4200, CompactAtFill: 0.85,
			ReadCache: 256, Prefetch: true, Seed: 1,
		}},
		keys: 12000, warmOps: 24000, ops: 240000,
		getPct: 50, putPct: 50,
		crashEvery: 20000, rebalanceEvery: 10000,
	},
	{
		name: "read-mostly",
		why:  "YCSB-B on two clusters with GPF group commit: read cache, prefetcher and MultiGet fan-out; GPF drains dominate host time",
		cfg: pool.Config{Clusters: 2, Store: kv.Config{
			Shards: 4, Strategy: kv.GroupCommit, Batch: 16, PipelineDepth: 2,
			Capacity: 2048, CompactAtFill: 0.85,
			ReadCache: 256, Prefetch: true, Seed: 1,
		}},
		keys: 6144, warmOps: 20000, ops: 200000,
		getPct: 90, multiGetPct: 5, putPct: 5, multiGetKeys: 8,
	},
	{
		name: "scan-pooled",
		why:  "YCSB-E on four clusters: progressive pooled scan fan-out over the store's full-index scan",
		cfg: pool.Config{Clusters: 4, Store: kv.Config{
			Shards: 2, Strategy: kv.RangedCommit, Batch: 8,
			Capacity:  4096,
			ReadCache: 256, Prefetch: true, Seed: 1,
		}},
		keys: 1536, warmOps: 1000, ops: 12000,
		scanPct: 95, insertPct: 5, maxScan: 16,
	},
}

func lookupSpec(name string) (*spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
