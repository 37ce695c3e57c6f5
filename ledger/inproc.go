package main

import (
	"fmt"
	"time"

	"altindex"
	"altindex/internal/core"
	"altindex/internal/gpl"
)

const (
	opGet = iota
	opInsert
	opScan
)

// Sizes of the in-process workloads. 2M uniform keys, half bulkloaded and
// half left for inserts; a round's stream is fixed and runs against a
// freshly bulkloaded index, so every round does the same work.
const (
	inprocKeys    = 2_000_000
	pointOps      = 1_000_000
	scanOps       = 200_000
	scanLen       = 100
	zipfTheta     = 0.99
	pathSampleLen = 10_000 // read keys probed with ARTLookupLength in traced runs
)

// inproc is the point and scan workloads: one goroutine calling the index
// directly, closed loop.
type inproc struct {
	loaded []kv     // sorted, bulkloaded at set-up
	kinds  []uint8  // per operation: opGet, opInsert or opScan
	keys   []uint64 // per operation: the key, or the scan start
	expect []uint64 // per read: valueOf(key), or the scan's fingerprint
	warm   int      // leading operations that are untimed warm-up
	nIns   int      // inserts in the whole stream
	sample []uint64 // read keys for the ART path metrics
}

func newPoint(seed uint64) workload { return newInproc(seed, false) }
func newScan(seed uint64) workload  { return newInproc(seed, true) }

// newInproc builds the stream: point is 90% Get over loaded keys (Zipf,
// rank scrambled) and 10% Insert of the other half in random order; scan is
// 95% ScanAppend(start, ^0, 100) from a Zipf-chosen loaded key and 5%
// Insert. The expected result of every read is computed here, from the
// benchmark's own ordered reference, before the program runs.
func newInproc(seed uint64, scan bool) workload {
	stream := uint64(1)
	nops, readShare := pointOps, 0.90
	if scan {
		stream, nops, readShare = 2, scanOps, 0.95
	}
	r := newRNG(seed, stream)
	keys := uniformKeys(r, inprocKeys)
	half := len(keys) / 2
	load, ins := keys[:half], keys[half:]
	w := &inproc{
		loaded: sortedPairs(load),
		kinds:  make([]uint8, nops),
		keys:   make([]uint64, nops),
		expect: make([]uint64, nops),
		warm:   nops / 10,
	}
	ref := newOrderedRef(keys)
	for _, k := range load {
		ref.add(k)
	}
	z := newZipf(len(load), zipfTheta)
	rank := r.perm(len(load))
	var scratch []kv
	for i := 0; i < nops; i++ {
		if r.float() >= readShare {
			k := ins[w.nIns]
			w.nIns++
			w.kinds[i], w.keys[i] = opInsert, k
			ref.add(k)
			continue
		}
		k := load[rank[z.draw(r)]]
		w.keys[i] = k
		if scan {
			w.kinds[i] = opScan
			scratch = ref.appendFrom(scratch[:0], k, scanLen)
			w.expect[i] = fingerprint(scratch)
		} else {
			w.kinds[i] = opGet
			w.expect[i] = valueOf(k)
		}
		if len(w.sample) < pathSampleLen {
			w.sample = append(w.sample, k)
		}
	}
	return w
}

func (w *inproc) round(e *env, traced bool) (roundResult, error) {
	var r roundResult
	tr := e.tr
	heap0 := liveHeap()

	t0 := time.Now()
	sp := tr.begin(spSetup, noSpan)
	ix := altindex.New(altindex.Options{})
	b := tr.begin(spCoreBulkload, sp)
	err := ix.Bulkload(w.loaded)
	bulkNs := tr.end(b)
	tr.end(sp)
	r.Setup = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("bulkload: %w", err)
	}
	defer ix.Close()
	alt, ok := ix.(*core.ALT)
	if !ok {
		return r, fmt.Errorf("altindex.New returned %T, want *core.ALT", ix)
	}

	w.exec(ix, 0, w.warm, &r, false, tr)
	var st0 map[string]int64
	if traced {
		r.Layers = map[string]float64{}
		st0 = alt.StatsMap()
		tr.reset()
	}
	r.Ops = len(w.kinds) - w.warm
	r.Reads = make([]uint32, 0, r.Ops)
	r.Writes = make([]uint32, 0, r.Ops/5)
	ph := startPhase(traced)
	w.exec(ix, w.warm, len(w.kinds), &r, true, tr)
	ph.stop(&r)

	// Len must be the loaded keys plus every insert of the stream.
	r.Attempted++
	n := ix.Len()
	if n != len(w.loaded)+w.nIns {
		r.Failed++
	}
	if traced {
		l := r.Layers
		l["core.get_ns"] = tr.meanNs(spCoreGet)
		l["core.insert_ns"] = tr.meanNs(spCoreInsert)
		l["core.scan_ns"] = tr.meanNs(spCoreScan)
		l["core.bulkload_s"] = float64(bulkNs) / 1e9
		coreLayers(l, st0, alt.StatsMap(), n)
		pathLayers(l, alt, w.sample)
		keys := make([]uint64, len(w.loaded))
		for i, p := range w.loaded {
			keys[i] = p.Key
		}
		g := tr.begin(spGPLPartition, noSpan)
		gpl.Partition(keys, float64(len(keys))/1000)
		l["gpl.partition_s"] = float64(tr.end(g)) / 1e9
	}
	r.HeapPerKey = float64(int64(liveHeap())-int64(heap0)) / float64(n)
	return r, nil
}

// exec runs operations [lo, hi) of the stream, checking each output
// against its precomputed reference; record keeps latency samples.
func (w *inproc) exec(ix altindex.Index, lo, hi int, r *roundResult, record bool, tr *tracer) {
	dst := make([]kv, 0, scanLen)
	var op, c spanH
	for i := lo; i < hi; i++ {
		k := w.keys[i]
		r.Attempted++
		switch w.kinds[i] {
		case opGet:
			if tr != nil {
				op = tr.begin(spOp, noSpan)
				c = tr.begin(spCoreGet, op)
			}
			t0 := time.Now()
			v, ok := ix.Get(k)
			d := since(t0)
			if tr != nil {
				tr.end(c)
				tr.end(op)
			}
			if !ok || v != w.expect[i] {
				r.Failed++
			}
			if record {
				r.Reads = append(r.Reads, d)
			}
		case opScan:
			if tr != nil {
				op = tr.begin(spOp, noSpan)
				c = tr.begin(spCoreScan, op)
			}
			t0 := time.Now()
			dst = ix.ScanAppend(dst[:0], k, ^uint64(0), scanLen)
			d := since(t0)
			if tr != nil {
				tr.end(c)
				tr.end(op)
			}
			if fingerprint(dst) != w.expect[i] {
				r.Failed++
			}
			if record {
				r.Reads = append(r.Reads, d)
			}
		case opInsert:
			if tr != nil {
				op = tr.begin(spOp, noSpan)
				c = tr.begin(spCoreInsert, op)
			}
			t0 := time.Now()
			err := ix.Insert(k, valueOf(k))
			d := since(t0)
			if tr != nil {
				tr.end(c)
				tr.end(op)
			}
			if err != nil {
				r.Failed++
			}
			if record {
				r.Writes = append(r.Writes, d)
			}
		}
	}
}

// coreLayers fills the core, arena and epoch metrics from two StatsMap
// snapshots taken around the measured phase; n is the resident key count.
func coreLayers(l map[string]float64, st0, st1 map[string]int64, n int) {
	d := func(k string) float64 { return float64(st1[k] - st0[k]) }
	keys := float64(max(n, 1))
	l["core.art_keys_per_key"] = float64(st1["art_keys"]) / keys
	l["core.models"] = float64(st1["models"])
	l["core.retrains"] = d("retrains")
	l["core.retrain_freeze_ms"] = d("retrain_freeze_ns") / 1e6
	l["core.retrain_drops"] = d("retrain_drops")
	l["core.writer_spins"] = d("writer_spins")
	l["arena.live_bytes_per_key"] = float64(st1["arena_live_bytes"]) / keys
	l["arena.chunk_reuses"] = d("arena_chunk_reuses")
	l["epoch.reclaims"] = d("reclaims")
	l["epoch.limbo_bytes"] = float64(st1["limbo_bytes"])
}

// pathLayers probes sample with ARTLookupLength: the share resolved by the
// learned layer, and the ART path length from the fast pointer and from
// the root for the keys that are ART-resident.
func pathLayers(l map[string]float64, alt *core.ALT, sample []uint64) {
	var inART, fp, root int
	for _, k := range sample {
		p, resident := alt.ARTLookupLength(k, true)
		if !resident {
			continue
		}
		inART++
		fp += p
		p, _ = alt.ARTLookupLength(k, false)
		root += p
	}
	l["core.learned_share"] = 1 - float64(inART)/float64(max(len(sample), 1))
	if inART > 0 {
		l["core.art_path_len"] = float64(fp) / float64(inART)
		l["core.art_path_len_root"] = float64(root) / float64(inART)
	}
}
