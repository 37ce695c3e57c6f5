package main

import (
	"math"
	"math/bits"
	"slices"
)

// rng is a splitmix64 generator. The benchmark owns its randomness so that
// a change to the program's own generators can never change its inputs:
// one seed always yields the same key sets and operation streams.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a uniform integer in [0, n) (Lemire's multiply-shift; the
// bias is below 2^-32 for every n this benchmark uses).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a uniform random permutation of [0, n).
func (r *rng) perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta,
// by the method of Gray et al. ("Quickly generating billion-record
// synthetic databases", SIGMOD 1994), as YCSB does. Rank 0 is the hottest;
// callers scramble ranks through a permutation so that hot keys are spread
// over the key space.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipf{
		n:     float64(n),
		theta: theta,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		zetan: zetan,
		half:  1 + math.Pow(0.5, theta),
	}
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	i := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= int(z.n) {
		i = int(z.n) - 1
	}
	return i
}

// uniformKeys returns n distinct uniform 64-bit keys in generation order
// (an osm-like key set: the shape the paper's osm dataset is reduced to
// when only its spread over the 64-bit space matters).
func uniformKeys(r *rng, n int) []uint64 {
	keys := make([]uint64, 0, n)
	seen := make(map[uint64]struct{}, n)
	for len(keys) < n {
		k := r.next()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// denseKeys returns n ascending libio-like IDs: runs of consecutive IDs
// separated by short gaps, the shape of a log of sequential record IDs
// with deletions.
func denseKeys(r *rng, n int) []uint64 {
	keys := make([]uint64, 0, n)
	id := uint64(1) << 32
	for len(keys) < n {
		run := 256 + r.intn(1792)
		for i := 0; i < run && len(keys) < n; i++ {
			keys = append(keys, id)
			id++
		}
		id += 1 + uint64(r.intn(64))
	}
	return keys
}

// valueOf is the value the benchmark stores under a key that it never
// overwrites; durable upserts use valueAt with a version instead.
func valueOf(k uint64) uint64 { return mix64(k ^ 0x5851F42D4C957F2D) }

func valueAt(k uint64, version uint64) uint64 {
	return mix64(k ^ 0x5851F42D4C957F2D ^ version*0x9E3779B97F4A7C15)
}

// sortedPairs returns the keys sorted with their valueOf values, ready for
// Bulkload or Preload.
func sortedPairs(keys []uint64) []kv {
	s := slices.Clone(keys)
	slices.Sort(s)
	out := make([]kv, len(s))
	for i, k := range s {
		out[i] = kv{Key: k, Value: valueOf(k)}
	}
	return out
}
