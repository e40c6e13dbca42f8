package main

import (
	"fmt"
	"sort"

	"cxl0/internal/core"
	"cxl0/internal/kv"
)

// model is the benchmark's own record of what it wrote, kept apart from
// the program: a plain per-key list of values, and per shard the writes
// not yet known durable. Every value the benchmark writes is unique and
// larger than every earlier one, so "newer" is numeric order.
//
// A write is known durable once a Put returned Ack.Durable on its shard
// (a batch commit covers every earlier write of the shard), once its
// shard's acked-watermark passed its log slot or a compaction of the
// shard followed it (the commit pipeline acknowledges writes after their
// Put returned), or once a Sync followed it. A crash of a shard orphans
// its writes not yet known durable: each may have survived or been
// dropped, and the next read of the key tells which.
type model struct {
	keys   []keyModel
	queued [][]qwrite // per global shard: writes not yet known durable

	writes   uint64 // client writes issued in the measured phase
	orphaned uint64 // writes orphaned by crashes
	dropped  uint64 // orphans a later read proved dropped

	// newestVisible says every read must return the key's newest write
	// when that write is not orphaned: true under a blocking commit,
	// where appended records are visible at once. The commit pipeline
	// serves the last acknowledged state instead (docs/pipeline.md).
	newestVisible bool

	violations int
	first      []string // the first few violations, for the report
}

type keyModel struct {
	// durable is the newest value known durable (0: the key was never
	// known to exist). pending are the newer values written since, in
	// write order; orphaned ones were pending on a shard that crashed.
	durable core.Val
	pending []pwrite
	// lastRead is the newest value a read returned since the key's last
	// crash: reads never go backwards except across a crash of a shard
	// holding one of its pending writes.
	lastRead core.Val
}

type pwrite struct {
	val    core.Val
	orphan bool
}

// qwrite is a write not yet known durable: its key and value, and where
// the Ack put it, the slot in the log of the shard's snapshot epoch.
type qwrite struct {
	key, val core.Val
	seq      int
	epoch    uint64
}

const maxReported = 8

func newModel(keys, shards int, newestVisible bool) *model {
	return &model{keys: make([]keyModel, keys), queued: make([][]qwrite, shards), newestVisible: newestVisible}
}

func (m *model) violate(format string, args ...any) {
	m.violations++
	if len(m.first) < maxReported {
		m.first = append(m.first, fmt.Sprintf(format, args...))
	}
}

func (m *model) key(k core.Val) *keyModel {
	for int(k) >= len(m.keys) {
		m.keys = append(m.keys, keyModel{})
	}
	return &m.keys[k]
}

// preloaded records a write made durable by the setup's Sync.
func (m *model) preloaded(k, v core.Val) { m.key(k).durable = v }

// wrote records an acknowledged client write; epoch is the snapshot
// epoch of the shard's log that ack.Seq indexes.
func (m *model) wrote(k, v core.Val, ack kv.Ack, epoch uint64) {
	m.writes++
	km := m.key(k)
	km.pending = append(km.pending, pwrite{val: v})
	if ack.Shard < 0 || ack.Shard >= len(m.queued) {
		m.violate("put %d=%d: ack names shard %d of %d", k, v, ack.Shard, len(m.queued))
		return
	}
	m.queued[ack.Shard] = append(m.queued[ack.Shard], qwrite{key: k, val: v, seq: ack.Seq, epoch: epoch})
	if ack.Durable {
		m.commitShard(ack.Shard)
	}
}

// commitShard marks every queued write of shard sh durable.
func (m *model) commitShard(sh int) {
	for _, w := range m.queued[sh] {
		m.makeDurable(w.key, w.val)
	}
	m.queued[sh] = m.queued[sh][:0]
}

// retired records shard sh's acked-watermark: acked is the number of
// acknowledged records of the log of snapshot epoch epoch. A queued write
// below it is durable, and so is one of an older epoch, since compaction
// commits the open batch before it folds the log.
func (m *model) retired(sh int, epoch uint64, acked int) {
	q := m.queued[sh]
	i := 0
	for ; i < len(q) && (q[i].epoch < epoch || q[i].seq < acked); i++ {
		m.makeDurable(q[i].key, q[i].val)
	}
	m.queued[sh] = q[i:]
}

// synced marks every write issued so far durable.
func (m *model) synced() {
	for sh := range m.queued {
		m.commitShard(sh)
	}
}

// makeDurable records v as durable for k, retiring every older value.
func (m *model) makeDurable(k, v core.Val) {
	km := m.key(k)
	if v <= km.durable {
		return
	}
	km.durable = v
	i := sort.Search(len(km.pending), func(i int) bool { return km.pending[i].val > v })
	km.pending = km.pending[:copy(km.pending, km.pending[i:])]
}

// crashed orphans every write of shard sh not yet known durable.
func (m *model) crashed(sh int) {
	for _, w := range m.queued[sh] {
		km := m.key(w.key)
		i := sort.Search(len(km.pending), func(i int) bool { return km.pending[i].val >= w.val })
		if i < len(km.pending) && km.pending[i].val == w.val {
			km.pending[i].orphan = true
			km.lastRead = 0
			m.orphaned++
		}
	}
	m.queued[sh] = m.queued[sh][:0]
}

// read checks one served read of k against the model and records it.
func (m *model) read(what string, k, v core.Val, found bool) {
	if k < 0 || int(k) >= len(m.keys) {
		m.violate("%s: key %d was never written", what, k)
		return
	}
	km := &m.keys[k]
	i := -1
	if !found {
		if km.durable != 0 {
			m.violate("%s: key %d not found, but %d is durable", what, k, km.durable)
			return
		}
		if km.lastRead != 0 {
			m.violate("%s: key %d not found after a read returned %d", what, k, km.lastRead)
			return
		}
		// Like reading the durable value: orphaned writes were dropped.
	} else if v != km.durable || v == 0 {
		i = sort.Search(len(km.pending), func(i int) bool { return km.pending[i].val >= v })
		if i == len(km.pending) || km.pending[i].val != v {
			m.violate("%s: key %d returned %d, which is not the durable %d nor a later write to it", what, k, v, km.durable)
			return
		}
	}
	if n := len(km.pending); m.newestVisible && n > 0 && !km.pending[n-1].orphan && v != km.pending[n-1].val {
		m.violate("%s: key %d returned %d, not its newest write %d", what, k, v, km.pending[n-1].val)
		return
	}
	if v < km.lastRead {
		m.violate("%s: key %d went back from %d to %d without a crash", what, k, km.lastRead, v)
		return
	}
	km.lastRead = v
	if i >= 0 && !km.pending[i].orphan {
		return
	}
	// v is the durable value (or absence) or a crash survivor, which
	// recovery re-persisted: orphans newer than v were dropped.
	for _, w := range km.pending[i+1:] {
		if w.orphan {
			m.dropped++
		}
	}
	kept := km.pending[:0]
	for _, w := range km.pending[i+1:] {
		if !w.orphan {
			kept = append(kept, w)
		}
	}
	km.pending = kept
	km.durable = v
}

// scan checks one served Scan(lo, inf, limit) result.
func (m *model) scan(lo core.Val, limit int, pairs []kv.Pair) {
	if len(pairs) > limit {
		m.violate("scan from %d: %d pairs for limit %d", lo, len(pairs), limit)
	}
	next := lo // every known-durable key in [next, pair key) was skipped
	for _, p := range pairs {
		if p.Key < next {
			m.violate("scan from %d: key %d out of order (expected >= %d)", lo, p.Key, next)
			return
		}
		m.checkNoneDurable(lo, next, p.Key)
		m.read("scan", p.Key, p.Val, true)
		next = p.Key + 1
	}
	if len(pairs) < limit {
		// A short result claims the range is exhausted.
		m.checkNoneDurable(lo, next, core.Val(len(m.keys)))
	}
}

func (m *model) checkNoneDurable(lo, from, to core.Val) {
	for k := from; k < to && int(k) < len(m.keys); k++ {
		if m.keys[k].durable != 0 {
			m.violate("scan from %d: skipped key %d, durable at %d", lo, k, m.keys[k].durable)
			return
		}
	}
}

// final checks a full read of the keyspace taken after the final Sync
// (which synced() has recorded): every key equals its newest write,
// except a key whose newest writes were orphaned and not read since,
// which must hold the durable value or one of those orphans.
func (m *model) final(got map[core.Val]core.Val) {
	for k := range m.keys {
		km := &m.keys[k]
		v, found := got[core.Val(k)]
		if len(km.pending) == 0 {
			if found != (km.durable != 0) || v != km.durable {
				m.violate("final: key %d holds %d (found %v), model has %d", k, v, found, km.durable)
			}
			continue
		}
		m.read("final", core.Val(k), v, found)
	}
	for k := range got {
		if k < 0 || int(k) >= len(m.keys) {
			m.violate("final: key %d was never written", k)
		}
	}
}
