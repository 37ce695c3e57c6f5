package main

import (
	"fmt"
	"time"

	"altindex"
	"altindex/internal/core"
	"altindex/internal/server"
)

// Sizes of the ingest workload: 1M dense IDs with gaps, a uniform 20% of
// them held back for the SET bursts, which take them in random order.
const (
	ingestKeys   = 1_000_000
	ingestBursts = 16_000
)

// ingest is the served read/write mix without a WAL: one connection,
// bursts of 16 GETs (70%) or 16 SETs of fresh held-back IDs (30%).
type ingest struct {
	preload []kv // sorted; Preloaded at set-up
	s       connStream
	held    []uint64 // the held-back IDs the stream SETs, in SET order
	sample  []uint64
}

// newIngest holds back a uniform fifth of the IDs rather than a contiguous
// range taken in ascending order: ascending inserts into one range fire the
// paper's hot-write retraining about once per 90 SET bursts, and where
// those retrains land swung the write p99 by a third between runs.
func newIngest(seed uint64) workload {
	r := newRNG(seed, 3)
	keys := denseKeys(r, ingestKeys)
	var load, held []uint64
	for _, i := range r.perm(len(keys)) {
		if len(held) < len(keys)/5 {
			held = append(held, keys[i])
		} else {
			load = append(load, keys[i])
		}
	}
	w := &ingest{preload: sortedPairs(load)}
	z := newZipf(len(load), zipfTheta)
	rank := r.perm(len(load))
	ks, vs := make([]uint64, burstLen), make([]uint64, burstLen)
	var exp []byte
	next := 0
	for b := 0; b < ingestBursts; b++ {
		exp = exp[:0]
		if r.float() < 0.70 {
			for i := range ks {
				k := load[rank[z.draw(r)]]
				ks[i] = k
				exp = appendGetReply(exp, entry{valueOf(k), true})
				if len(w.sample) < pathSampleLen {
					w.sample = append(w.sample, k)
				}
			}
			w.s.add(burstGet, ks, nil, exp)
			continue
		}
		for i := range ks {
			ks[i], vs[i] = held[next], valueOf(held[next])
			next++
			exp = append(exp, "OK\n"...)
		}
		w.s.add(burstSet, ks, vs, exp)
	}
	w.held = held[:next]
	w.s.warm = ingestBursts / 10
	return w
}

func (w *ingest) round(e *env, traced bool) (roundResult, error) {
	var r roundResult
	tr := e.tr
	heap0 := liveHeap()

	t0 := time.Now()
	sp := tr.begin(spSetup, noSpan)
	srv, err := startServer(server.Config{}, tr, sp)
	if err != nil {
		return r, err
	}
	defer srv.stop()
	pre := tr.begin(spServerPre, sp)
	err = srv.srv.Preload(w.preload)
	preNs := tr.end(pre)
	tr.end(sp)
	r.Setup = time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("preload: %w", err)
	}
	c, err := dial(srv.addr)
	if err != nil {
		return r, err
	}
	defer c.close()

	if err := c.run(&w.s, 0, w.s.warm, &r, false, tr); err != nil {
		return r, err
	}
	var st0 map[string]int64
	if traced {
		r.Layers = map[string]float64{}
		if st0, err = c.stats(tr); err != nil {
			return r, err
		}
		tr.reset()
	}
	nb := w.s.bursts() - w.s.warm
	r.Ops = nb * burstLen
	r.Reads, r.Writes = make([]uint32, 0, nb), make([]uint32, 0, nb)
	ph := startPhase(traced)
	if err := c.run(&w.s, w.s.warm, w.s.bursts(), &r, true, tr); err != nil {
		return r, err
	}
	ph.stop(&r)
	var st1 map[string]int64
	if traced {
		if st1, err = c.stats(tr); err != nil {
			return r, err
		}
	}

	// Every SET must read back, and LEN must count every key.
	bad, err := c.check(w.held, func(k uint64) entry { return entry{valueOf(k), true} })
	if err != nil {
		return r, err
	}
	r.Attempted += len(w.held) + 1
	r.Failed += bad
	n := len(w.preload) + len(w.held)
	if got, err := c.length(); err != nil {
		return r, err
	} else if got != n {
		r.Failed++
	}
	r.HeapPerKey = float64(int64(liveHeap())-int64(heap0)) / float64(n)
	c.close()
	if err := srv.stop(); err != nil {
		return r, fmt.Errorf("shutdown: %w", err)
	}

	if traced {
		l := r.Layers
		l["server.preload_s"] = float64(preNs) / 1e9
		netLayers(l, st0, st1)
		coreLayers(l, st0, st1, n)
		l["netproto.parse_ns_per_cmd"] = parseNsPerCmd(&w.s, tr)
		getP50, err := w.replay(l, tr, &r)
		if err != nil {
			return r, err
		}
		rtt := pctl(sortedCopy(r.Reads), 0.5) / 1e3
		l["server.other_us_per_burst"] = rtt - getP50
	}
	return r, nil
}

// replay plays the bursts in-process against an index prepared the way
// the server prepares its own (InsertBatch in Preload's 4096-pair chunks):
// GET bursts through GetBatch, SET bursts through InsertBatch. It fills
// the batch-call and ART path metrics and returns the GetBatch p50 in us.
func (w *ingest) replay(l map[string]float64, tr *tracer, r *roundResult) (float64, error) {
	ix := altindex.New(altindex.Options{})
	defer ix.Close()
	for off := 0; off < len(w.preload); off += 4096 {
		if err := ix.InsertBatch(w.preload[off:min(off+4096, len(w.preload))]); err != nil {
			return 0, err
		}
	}
	vals, found := make([]uint64, burstLen), make([]bool, burstLen)
	pairs := make([]kv, burstLen)
	var gets, sets []uint32
	for b := 0; b < w.s.bursts(); b++ {
		keys := w.s.keys[b*burstLen : (b+1)*burstLen]
		var d uint32
		if w.s.kinds[b] == burstGet {
			sp := tr.begin(spCoreGetBatch, noSpan)
			t0 := time.Now()
			ix.GetBatch(keys, vals, found)
			d = since(t0)
			tr.end(sp)
			for i, k := range keys {
				r.Attempted++
				if !found[i] || vals[i] != valueOf(k) {
					r.Failed++
				}
			}
			if b >= w.s.warm {
				gets = append(gets, d)
			}
			continue
		}
		for i, k := range keys {
			pairs[i] = kv{Key: k, Value: w.s.vals[b*burstLen+i]}
		}
		sp := tr.begin(spCoreInsertBatch, noSpan)
		t0 := time.Now()
		err := ix.InsertBatch(pairs)
		d = since(t0)
		tr.end(sp)
		r.Attempted += burstLen
		if err != nil {
			r.Failed += burstLen
		}
		if b >= w.s.warm {
			sets = append(sets, d)
		}
	}
	getP50 := pctl(sortedCopy(gets), 0.5) / 1e3
	l["core.getbatch_us"] = getP50
	l["core.insertbatch_us"] = pctl(sortedCopy(sets), 0.5) / 1e3
	alt, ok := ix.(*core.ALT)
	if !ok {
		return 0, fmt.Errorf("altindex.New returned %T, want *core.ALT", ix)
	}
	pathLayers(l, alt, w.sample)
	return getP50, nil
}
