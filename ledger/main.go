// Command ledger is the fixed benchmark of the ALT-index reproduction. One
// command runs one of four workloads (point, scan, ingest, durable) for a
// given time and prints one JSON line: whether every checked output was
// correct, how many operations were attempted and failed, and the
// end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
// A run is a sequence of identical rounds. Each round sets the program up
// from scratch (timed: setup_s), runs an untimed warm-up, then a measured
// phase of a fixed operation stream, and checks every output against
// references the benchmark computed itself. Rounds repeat until --seconds
// have passed (at least minRounds); every metric is the median of its
// per-round values.
//
// Usage (from the repository root; ledger/run.py builds and runs it):
//
//	ledger --workload point --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"altindex"
)

type kv = altindex.KV

// minRounds is the fewest rounds a run makes, so that every metric is a
// median of at least three measurements.
const minRounds = 3

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the index or of altdb sees; every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p95_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p95_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"heap_bytes_per_key", "B", "lower"},
}

// perLayer are the traced run's metrics. A workload that gives a layer no
// work reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"core.get_ns", "ns", "lower"},
	{"core.insert_ns", "ns", "lower"},
	{"core.scan_ns", "ns", "lower"},
	{"core.learned_share", "ratio", "higher"},
	{"core.art_path_len", "nodes", "lower"},
	{"core.art_path_len_root", "nodes", "lower"},
	{"core.art_keys_per_key", "ratio", "lower"},
	{"core.models", "count", "lower"},
	{"core.bulkload_s", "s", "lower"},
	{"gpl.partition_s", "s", "lower"},
	{"core.retrains", "count", "lower"},
	{"core.retrain_freeze_ms", "ms", "lower"},
	{"core.retrain_drops", "count", "lower"},
	{"core.writer_spins", "count", "lower"},
	{"core.getbatch_us", "us", "lower"},
	{"core.insertbatch_us", "us", "lower"},
	{"arena.live_bytes_per_key", "B", "lower"},
	{"arena.chunk_reuses", "count", "higher"},
	{"epoch.reclaims", "count", "higher"},
	{"epoch.limbo_bytes", "B", "lower"},
	{"server.preload_s", "s", "lower"},
	{"server.flushes_per_cmd", "ratio", "lower"},
	{"server.bytes_out_per_cmd", "B", "lower"},
	{"server.other_us_per_burst", "us", "lower"},
	{"netproto.parse_ns_per_cmd", "ns", "lower"},
	{"wal.fsyncs_per_write", "ratio", "lower"},
	{"wal.appends_per_fsync", "ratio", "higher"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.commit_us", "us", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.replayed_records", "count", "lower"},
	{"gc.cycles_per_mop", "1/Mop", "lower"},
	{"gc.pause_p99_us", "us", "lower"},
	{"gc.alloc_bytes_per_op", "B", "lower"},
	{"gc.allocs_per_op", "1/op", "lower"},
}

// workload is one named input set. Its constructor generates every input
// from the seed (untimed, outside set-up); round runs one round.
type workload interface {
	round(env *env, traced bool) (roundResult, error)
}

var workloads = map[string]func(seed uint64) workload{
	"point":   newPoint,
	"scan":    newScan,
	"ingest":  newIngest,
	"durable": newDurable,
}

// env is what a workload may use besides its inputs: a private scratch
// directory and, in traced runs, the tracer.
type env struct {
	dir string
	tr  *tracer
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// ownProcess marks the workloads whose rounds each run in a child process.
// server.Shutdown does not close the server's index, so the retraining
// worker of every shut-down server keeps its whole index reachable; in one
// process, each served round would leave the next a larger heap to scan.
// A child generates its inputs afresh, so point and scan, which close
// their index, stay in one process: in child rounds the 1.5 s of input
// generation per round cut a 15 s point run from about 40 rounds to 6.
var ownProcess = map[string]bool{"ingest": true, "durable": true}

func main() {
	name := flag.String("workload", "", "workload: point, scan, ingest or durable")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "run rounds until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead")
	work := flag.String("work", ".bench_build", "directory for scratch WAL directories and span files")
	round := flag.Int("round", -1, "internal: run only this round and print its raw result")
	flag.Parse()
	o := opts{name: *name, seed: *seed, traced: *trace == 1, work: *work}
	var err error
	if *round >= 0 {
		err = childRound(o, *round)
	} else {
		err = run(o, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
}

type opts struct {
	name   string
	seed   uint64
	traced bool
	work   string
}

func (o opts) spansPath() string {
	return filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.csv", o.name, o.seed))
}

func run(o opts, seconds float64) error {
	t0 := time.Now()
	var next func(i int) (roundResult, error)
	var l *local
	if ownProcess[o.name] {
		next = func(i int) (roundResult, error) { return spawnRound(o, i) }
	} else {
		var err error
		if l, err = newLocal(o); err != nil {
			return err
		}
		defer l.cleanup()
		next = func(int) (roundResult, error) { return l.round(o.traced) }
	}

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds []roundResult
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		r, err := next(len(rounds))
		if err != nil {
			return fmt.Errorf("%s round %d: %w", o.name, len(rounds), err)
		}
		// The round's metrics keep all the run needs of its samples.
		r.E2E = roundMetrics(r)
		r.Reads, r.Writes = nil, nil
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "ledger: round %d:", len(rounds)-1)
		for _, m := range endToEnd {
			fmt.Fprintf(os.Stderr, " %s=%.4g", m.name, r.E2E[m.name])
		}
		fmt.Fprintln(os.Stderr)
	}
	if l != nil {
		if err := l.writeSpans(o); err != nil {
			return err
		}
	}

	out := summarize(rounds, o.traced)
	fmt.Fprintf(os.Stderr, "ledger: %d rounds in %.1fs\n", len(rounds), time.Since(t0).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d of %d checked operations disagreed with the reference", out.Failed, out.Attempted)
	}
	return nil
}

// summarize reduces the rounds to the result line: the end-to-end metrics,
// or in a traced run the per-layer metrics. Each metric is the median of
// its per-round values, latency percentiles included, so that one round
// slowed by the host moves no metric of the run. The run is correct only
// if no checked output disagreed with its reference.
func summarize(rounds []roundResult, traced bool) result {
	out := result{Metrics: map[string]metricOut{}}
	for _, r := range rounds {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	out.Correct = out.Failed == 0
	med := func(f func(r roundResult) float64) float64 {
		vals := make([]float64, len(rounds))
		for i, r := range rounds {
			vals[i] = f(r)
		}
		return median(vals)
	}
	if traced {
		for _, m := range perLayer {
			out.Metrics[m.name] = metricOut{med(func(r roundResult) float64 { return r.Layers[m.name] }), m.unit}
		}
	}
	for _, m := range endToEnd {
		v := med(func(r roundResult) float64 { return r.E2E[m.name] })
		if traced {
			// The traced run's end-to-end figures include the tracing
			// overhead; they go to stderr for comparison only.
			fmt.Fprintf(os.Stderr, "ledger: traced %s %.6g %s\n", m.name, v, m.unit)
			continue
		}
		out.Metrics[m.name] = metricOut{v, m.unit}
	}
	return out
}

// local runs rounds of one workload in this process: its inputs are
// generated once, and its scratch directory and tracer serve every round.
type local struct {
	w       workload
	e       *env
	cleanup func()
}

func newLocal(o opts) (*local, error) {
	mk, ok := workloads[o.name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.name)
	}
	t0 := time.Now()
	w := mk(o.seed)
	fmt.Fprintf(os.Stderr, "ledger: %s seed %d: inputs generated in %.2fs\n", o.name, o.seed, time.Since(t0).Seconds())
	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%s-%d", o.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	if o.traced {
		e.tr = newTracer()
	}
	return &local{w: w, e: e, cleanup: func() { os.RemoveAll(dir) }}, nil
}

func (l *local) round(traced bool) (roundResult, error) {
	l.e.tr.reset()
	return l.w.round(l.e, traced)
}

// writeSpans writes a traced run's spans file.
func (l *local) writeSpans(o opts) error {
	if l.e.tr == nil {
		return nil
	}
	return l.e.tr.write(o.spansPath())
}

// spawnRound runs round i in a child process of this binary and decodes
// the raw round result it prints.
func spawnRound(o opts, i int) (roundResult, error) {
	var r roundResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", o.name, "--seed", strconv.FormatUint(o.seed, 10),
		"--trace", trace, "--work", o.work, "--round", strconv.Itoa(i))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(out, &r)
	return r, err
}

// childRound runs round i alone in this process and prints its raw
// result; round 0 of a traced run also writes the spans file.
func childRound(o opts, i int) error {
	l, err := newLocal(o)
	if err != nil {
		return err
	}
	defer l.cleanup()
	r, err := l.round(o.traced)
	if err != nil {
		return err
	}
	if i == 0 {
		if err := l.writeSpans(o); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// roundMetrics returns one round's end-to-end metrics.
func roundMetrics(r roundResult) map[string]float64 {
	ops := float64(max(r.Ops, 1))
	reads, writes := sortedCopy(r.Reads), sortedCopy(r.Writes)
	return map[string]float64{
		"setup_s":            r.Setup.Seconds(),
		"ops_per_s":          ops / r.Wall.Seconds(),
		"read_p50_us":        pctl(reads, 0.50) / 1e3,
		"read_p95_us":        pctl(reads, 0.95) / 1e3,
		"write_p50_us":       pctl(writes, 0.50) / 1e3,
		"write_p95_us":       pctl(writes, 0.95) / 1e3,
		"cpu_us_per_op":      float64(r.CPU.Nanoseconds()) / 1e3 / ops,
		"heap_bytes_per_key": r.HeapPerKey,
	}
}
