package main

import (
	"math"
	"math/rand/v2"

	"cxl0/internal/core"
)

// The benchmark draws its operation stream from its own generator, so a
// change to the repository's workload package cannot change its inputs.

// zipf draws ranks in [0, n) with YCSB's zipfian skew (theta 0.99), using
// the rejection-free method of Gray et al. ("Quickly generating
// billion-record synthetic databases"), as YCSB's ZipfianGenerator does.
type zipf struct {
	n                  float64
	theta, alpha, eta  float64
	zetan, halfPowTeta float64
}

const zipfTheta = 0.99

func newZipf(n int) *zipf {
	z := &zipf{n: float64(n), theta: zipfTheta}
	z.zetan = zeta(n, zipfTheta)
	z.alpha = 1 / (1 - zipfTheta)
	z.eta = (1 - math.Pow(2/z.n, 1-zipfTheta)) / (1 - zeta(2, zipfTheta)/z.zetan)
	z.halfPowTeta = 1 + math.Pow(0.5, zipfTheta)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// rank returns a zipfian rank: 0 is the most popular.
func (z *zipf) rank(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTeta {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// scramble spreads zipfian ranks over the keyspace (YCSB's
// ScrambledZipfianGenerator): popular keys land on unrelated shards and
// clusters instead of clustering at the low end of the key range.
func scramble(rank, n int) int {
	// FNV-1a over the rank's eight bytes.
	h := uint64(14695981039346656037)
	v := uint64(rank)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return int(h % uint64(n))
}

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

type opKind uint8

const (
	opGet opKind = iota
	opMultiGet
	opPut
	opInsert
	opScan
)

// op is one client operation of the stream. keys is reused between
// MultiGet operations; the client consumes it before drawing the next op.
type op struct {
	kind  opKind
	key   core.Val
	keys  []core.Val
	limit int
}

// stream draws a workload's client operations from its seed alone.
type stream struct {
	sp      *spec
	rng     *rand.Rand
	z       *zipf
	nextKey core.Val
	keys    []core.Val
}

func newStream(sp *spec, seed int64) *stream {
	return &stream{
		sp:      sp,
		rng:     newRNG(seed, 0x5eed),
		z:       newZipf(sp.keys),
		nextKey: core.Val(sp.keys),
		keys:    make([]core.Val, sp.multiGetKeys),
	}
}

func (s *stream) key() core.Val {
	return core.Val(scramble(s.z.rank(s.rng), s.sp.keys))
}

func (s *stream) next() op {
	p := s.rng.IntN(100)
	sp := s.sp
	switch {
	case p < sp.getPct:
		return op{kind: opGet, key: s.key()}
	case p < sp.getPct+sp.multiGetPct:
		for i := range s.keys {
			s.keys[i] = s.key()
		}
		return op{kind: opMultiGet, keys: s.keys}
	case p < sp.getPct+sp.multiGetPct+sp.putPct:
		return op{kind: opPut, key: s.key()}
	case p < sp.getPct+sp.multiGetPct+sp.putPct+sp.scanPct:
		return op{kind: opScan, key: s.key(), limit: 1 + s.rng.IntN(sp.maxScan)}
	default:
		k := s.nextKey
		s.nextKey++
		return op{kind: opInsert, key: k}
	}
}
