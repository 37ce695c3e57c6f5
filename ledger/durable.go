package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"altindex/internal/server"
	"altindex/internal/wal"
)

// Sizes and settings of the durable workload: one connection, and a WAL
// that acks a write once the committer has written it to the OS, without
// an fsync ("none"). With "always", every ack waited on the shared virtual
// disk, whose fsync latency doubled between runs minutes apart; with two
// connections, two clients, two handlers and the committer contending for
// two vCPUs spread the p99 latencies by up to their median between runs.
// wal.commit_us still times the fsync floor in traced runs.
const (
	durableKeys     = 200_000
	durableBursts   = 32_000
	durableCkpt     = 200 * time.Millisecond
	durableDeltas   = 8
	durableSync     = "none"
	durableRestarts = 3   // timed restarts per round; setup_s is their median
	walCommitProbe  = 200 // commits timed for wal.commit_us
)

// durable is the served mix over a WAL: each burst 16 GETs (45%), 16 SETs
// (45%: upserts and fresh keys) or 16 DELs of present keys (10%).
type durable struct {
	preload []kv
	s       connStream
	final   map[uint64]entry // reference state after a whole round
	checked []uint64         // every key the round may have touched
	live    int              // live keys after a whole round
}

func newDurable(seed uint64) workload {
	r := newRNG(seed, 4)
	keys := uniformKeys(r, durableKeys+durableBursts*burstLen)
	load, fresh := keys[:durableKeys], keys[durableKeys:]
	w := &durable{preload: sortedPairs(load), final: make(map[uint64]entry, len(keys))}
	present, seen := slices.Clone(load), slices.Clone(load)
	pos := make(map[uint64]int, len(present)) // index in present
	for i, k := range present {
		pos[k] = i
		w.final[k] = entry{valueOf(k), true}
	}
	remove := func(k uint64) {
		i := pos[k]
		last := present[len(present)-1]
		present[i], pos[last] = last, i
		present = present[:len(present)-1]
		delete(pos, k)
	}
	ks, vs := make([]uint64, burstLen), make([]uint64, burstLen)
	var exp []byte
	version := uint64(0)
	for b := 0; b < durableBursts; b++ {
		exp = exp[:0]
		u := r.float()
		switch {
		case u < 0.45:
			for i := range ks {
				ks[i] = seen[r.intn(len(seen))]
				exp = appendGetReply(exp, w.final[ks[i]])
			}
			w.s.add(burstGet, ks, nil, exp)
		case u < 0.90:
			inBurst := map[uint64]bool{}
			for i := range ks {
				var k uint64
				if r.intn(2) == 0 && len(fresh) > 0 {
					k, fresh = fresh[0], fresh[1:]
					pos[k] = len(present)
					present = append(present, k)
					seen = append(seen, k)
				} else {
					// A key appears once per burst: the server may apply
					// one burst's SETs in any order.
					k = present[r.intn(len(present))]
					for inBurst[k] {
						k = present[r.intn(len(present))]
					}
				}
				inBurst[k] = true
				version++
				ks[i], vs[i] = k, valueAt(k, version)
				w.final[k] = entry{vs[i], true}
				exp = append(exp, "OK\n"...)
			}
			w.s.add(burstSet, ks, vs, exp)
		default:
			for i := range ks {
				k := present[r.intn(len(present))]
				remove(k)
				ks[i] = k
				w.final[k] = entry{}
				exp = append(exp, "OK\n"...)
			}
			w.s.add(burstDel, ks, nil, exp)
		}
	}
	w.s.warm = durableBursts / 10
	w.checked = seen
	w.live = len(present)
	return w
}

// populate writes to dst the WAL directory image the round restarts from: a
// server with checkpoints disabled Preloads the keys (each 4096-key chunk
// one committed record), and its directory is copied to dst while that
// server is idle, every write acknowledged and so on disk: the state a
// crash would leave. Recovery then replays the whole log.
func (w *durable) populate(dir, dst string) error {
	pop := filepath.Join(dir, "populate")
	s, err := startServer(server.Config{WALDir: pop, WALSync: "always", CheckpointInterval: -1}, nil, noSpan)
	if err != nil {
		return err
	}
	if err := s.srv.Preload(w.preload); err != nil {
		s.stop()
		return fmt.Errorf("preload: %w", err)
	}
	if err := copyDir(pop, dst); err != nil {
		s.stop()
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	return os.RemoveAll(pop)
}

func (w *durable) round(e *env, traced bool) (roundResult, error) {
	var r roundResult
	tr := e.tr
	image := filepath.Join(e.dir, "image")
	defer os.RemoveAll(image)
	if err := w.populate(e.dir, image); err != nil {
		return r, fmt.Errorf("populate: %w", err)
	}
	cfg := server.Config{
		WALSync:             durableSync,
		CheckpointInterval:  durableCkpt,
		CheckpointMaxDeltas: durableDeltas,
	}
	// Every restart recovers a fresh copy of the image; the round's set-up
	// time is their median, and the last restart serves the phase.
	var heap0 uint64
	var srv *served
	setups := make([]float64, durableRestarts)
	for i := range setups {
		cfg.WALDir = filepath.Join(e.dir, fmt.Sprintf("restart%d", i))
		defer os.RemoveAll(cfg.WALDir)
		if err := copyDir(image, cfg.WALDir); err != nil {
			return r, err
		}
		last := i == len(setups)-1
		var rtr *tracer
		if last {
			heap0, rtr = liveHeap(), tr
		}
		t0 := time.Now()
		sp := rtr.begin(spSetup, noSpan)
		s, err := startServer(cfg, rtr, sp)
		rtr.end(sp)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			return r, fmt.Errorf("restart: %w", err)
		}
		if last {
			srv = s
		} else if err := s.stop(); err != nil {
			return r, fmt.Errorf("restart shutdown: %w", err)
		}
	}
	r.Setup = time.Duration(median(setups) * float64(time.Second))
	defer srv.stop()
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
	r.HeapPerKey = float64(int64(liveHeap())-int64(heap0)) / float64(w.live)
	c.close()
	if err := srv.stop(); err != nil {
		return r, fmt.Errorf("shutdown: %w", err)
	}

	// Reopen the directory: every acknowledged SET must read back with its
	// value and every acknowledged DEL must read back absent.
	cfg.CheckpointInterval = -1
	re, err := startServer(cfg, nil, noSpan)
	if err != nil {
		return r, fmt.Errorf("reopen: %w", err)
	}
	defer re.stop()
	rc, err := dial(re.addr)
	if err != nil {
		return r, err
	}
	defer rc.close()
	bad, err := rc.check(w.checked, func(k uint64) entry { return w.final[k] })
	if err != nil {
		return r, err
	}
	r.Attempted += len(w.checked)
	r.Failed += bad
	rc.close()
	if err := re.stop(); err != nil {
		return r, fmt.Errorf("reopen shutdown: %w", err)
	}

	if traced {
		l := r.Layers
		netLayers(l, st0, st1)
		coreLayers(l, st0, st1, w.live)
		walLayers(l, st0, st1, w.writeCmds())
		l["wal.replayed_records"] = float64(st0["replayed_records"])
		l["netproto.parse_ns_per_cmd"] = parseNsPerCmd(&w.s, tr)
		size := (st1["wal_bytes"] - st0["wal_bytes"]) / max(st1["wal_appends"]-st0["wal_appends"], 1)
		us, err := walCommitUs(filepath.Join(e.dir, "probe"), int(size), tr)
		if err != nil {
			return r, err
		}
		l["wal.commit_us"] = us
	}
	return r, nil
}

// writeCmds counts the SET and DEL commands of the measured bursts.
func (w *durable) writeCmds() int {
	n := 0
	for _, k := range w.s.kinds[w.s.warm:] {
		if k != burstGet {
			n += burstLen
		}
	}
	return n
}

// walLayers fills the WAL metrics from STATS snapshots around the measured
// phase; writes is the number of acknowledged write commands.
func walLayers(l map[string]float64, st0, st1 map[string]int64, writes int) {
	d := func(k string) float64 { return float64(st1[k] - st0[k]) }
	l["wal.fsyncs_per_write"] = d("wal_fsyncs") / float64(max(writes, 1))
	if f := d("wal_fsyncs"); f > 0 {
		l["wal.appends_per_fsync"] = d("wal_appends") / f
	}
	l["wal.bytes_per_write"] = d("wal_bytes") / float64(max(writes, 1))
	// Completed checkpoints: compactions (generation bumps) plus delta
	// files. A compaction fires once a generation holds durableDeltas
	// deltas and resets the count.
	g0, g1 := st0["checkpoint_generation"], st1["checkpoint_generation"]
	d0, d1 := st0["checkpoint_deltas"], st1["checkpoint_deltas"]
	deltas := d1 - d0
	if g1 > g0 {
		deltas = (durableDeltas - d0) + (g1-g0-1)*durableDeltas + d1
	}
	l["wal.checkpoints"] = float64(g1 - g0 + deltas)
}

// walCommitUs is the device floor under the durable workload: the median
// time of wal.Log.Commit of a size-byte record on a scratch log in the
// same filesystem, fsynced before it returns (SyncAlways).
func walCommitUs(dir string, size int, tr *tracer) (float64, error) {
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, max(size, 1))
	ds := make([]uint32, 0, walCommitProbe)
	for i := 0; i < walCommitProbe; i++ {
		sp := tr.begin(spWALCommit, noSpan)
		t0 := time.Now()
		_, err := log.Commit(payload)
		ds = append(ds, since(t0))
		tr.end(sp)
		if err != nil {
			log.Close()
			return 0, err
		}
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	return pctl(sortedCopy(ds), 0.5) / 1e3, nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
