package main

import "slices"

// orderedRef is the scan reference: the sorted universe of every key a
// workload will ever hold, with a presence bit per key. Because the
// universe is fixed up front, an insert is a binary search and a flag,
// and "the next max keys >= start" is a short forward walk.
type orderedRef struct {
	keys    []uint64 // sorted universe
	present []bool
}

func newOrderedRef(universe []uint64) *orderedRef {
	keys := slices.Clone(universe)
	slices.Sort(keys)
	return &orderedRef{keys: keys, present: make([]bool, len(keys))}
}

// add marks k present; it reports false when k is outside the universe.
func (o *orderedRef) add(k uint64) bool {
	i, ok := slices.BinarySearch(o.keys, k)
	if ok {
		o.present[i] = true
	}
	return ok
}

// appendFrom appends to dst the first max present keys >= start, in
// ascending order, each with its valueOf value.
func (o *orderedRef) appendFrom(dst []kv, start uint64, max int) []kv {
	i, _ := slices.BinarySearch(o.keys, start)
	for n := 0; i < len(o.keys) && n < max; i++ {
		if o.present[i] {
			dst = append(dst, kv{Key: o.keys[i], Value: valueOf(o.keys[i])})
			n++
		}
	}
	return dst
}

// fingerprint hashes a scan result, length included, so that a measured
// scan is checked against its reference key for key and value for value
// without keeping either list.
func fingerprint(pairs []kv) uint64 {
	h := uint64(len(pairs))
	for _, p := range pairs {
		h = (h ^ p.Key) * 0x9E3779B97F4A7C15
		h = (h ^ p.Value) * 0xC2B2AE3D27D4EB4F
	}
	return mix64(h)
}

// entry is one key of a served workload's reference map: the last value
// acknowledged for it, or live=false after an acknowledged DEL.
type entry struct {
	val  uint64
	live bool
}
