package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for name, mk := range workloads {
		if testing.Short() && (name == "point" || name == "scan") {
			continue
		}
		a, b, c := mk(7), mk(7), mk(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestOrderedRefMatchesBruteForce(t *testing.T) {
	r := newRNG(1, 99)
	universe := uniformKeys(r, 500)
	ref := newOrderedRef(universe)
	var present []uint64
	for step := 0; step < 400; step++ {
		if step%2 == 0 {
			k := universe[r.intn(len(universe))]
			ref.add(k)
			if !slices.Contains(present, k) {
				present = append(present, k)
			}
		}
		start := r.next()
		if step%3 == 0 && len(present) > 0 {
			start = present[r.intn(len(present))]
		}
		max := 1 + r.intn(20)
		var want []kv
		sorted := slices.Clone(present)
		slices.Sort(sorted)
		for _, k := range sorted {
			if k >= start && len(want) < max {
				want = append(want, kv{Key: k, Value: valueOf(k)})
			}
		}
		got := ref.appendFrom(nil, start, max)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: appendFrom(%d, %d) = %v, want %v", step, start, max, got, want)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("step %d: equal lists, different fingerprints", step)
		}
	}
	if ref.add(1) && !slices.Contains(universe, 1) {
		t.Fatal("add accepted a key outside the universe")
	}
}

func TestFingerprintSeesEveryField(t *testing.T) {
	p := func(k, v uint64) kv { return kv{Key: k, Value: v} }
	base := []kv{p(1, 10), p(2, 20), p(3, 30)}
	variants := [][]kv{
		{p(1, 10), p(2, 21), p(3, 30)},
		{p(1, 10), p(2, 20), p(4, 30)},
		{p(1, 10), p(2, 20)},
		{p(2, 20), p(1, 10), p(3, 30)},
	}
	for _, v := range variants {
		if fingerprint(v) == fingerprint(base) {
			t.Errorf("fingerprint(%v) equals fingerprint(%v)", v, base)
		}
	}
}

// TestScanExpectationsMatchBruteForce recomputes the expected result of
// the scan stream's first operations from a plain sorted slice.
func TestScanExpectationsMatchBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full scan workload")
	}
	w := newScan(3).(*inproc)
	var present []uint64
	for _, p := range w.loaded {
		present = append(present, p.Key)
	}
	for i := 0; i < 3000; i++ {
		k := w.keys[i]
		if w.kinds[i] == opInsert {
			j, found := slices.BinarySearch(present, k)
			if found {
				t.Fatalf("op %d inserts key %d that is already present", i, k)
			}
			present = slices.Insert(present, j, k)
			continue
		}
		j, _ := slices.BinarySearch(present, k)
		var want []kv
		for _, x := range present[j:min(j+scanLen, len(present))] {
			want = append(want, kv{Key: x, Value: valueOf(x)})
		}
		if fingerprint(want) != w.expect[i] {
			t.Fatalf("op %d: scan expectation differs from brute force", i)
		}
	}
}

// replayStream applies a connection's requests to a plain map and checks
// every expected reply against it.
func replayStream(t *testing.T, s *connStream, state map[uint64]entry) {
	t.Helper()
	for b := 0; b < s.bursts(); b++ {
		reqs := bytes.Split(bytes.TrimSuffix(s.req[s.reqOff[b]:s.reqOff[b+1]], []byte("\n")), []byte("\n"))
		exps := bytes.Split(bytes.TrimSuffix(s.exp[s.expOff[b]:s.expOff[b+1]], []byte("\n")), []byte("\n"))
		if len(reqs) != burstLen || len(exps) != burstLen {
			t.Fatalf("burst %d: %d requests, %d replies", b, len(reqs), len(exps))
		}
		for i, req := range reqs {
			f := bytes.Fields(req)
			k, _ := strconv.ParseUint(string(f[1]), 10, 64)
			var want string
			switch string(f[0]) {
			case "GET":
				if e := state[k]; e.live {
					want = "VALUE " + strconv.FormatUint(e.val, 10)
				} else {
					want = "NIL"
				}
			case "SET":
				v, _ := strconv.ParseUint(string(f[2]), 10, 64)
				state[k] = entry{v, true}
				want = "OK"
			case "DEL":
				if !state[k].live {
					t.Fatalf("burst %d: DEL of absent key %d", b, k)
				}
				state[k] = entry{}
				want = "OK"
			}
			if string(exps[i]) != want {
				t.Fatalf("burst %d cmd %q: expected reply %q, brute force says %q", b, req, exps[i], want)
			}
		}
	}
}

func TestIngestReferenceMatchesBruteForce(t *testing.T) {
	w := newIngest(5).(*ingest)
	state := map[uint64]entry{}
	for _, p := range w.preload {
		state[p.Key] = entry{p.Value, true}
	}
	for _, k := range w.held {
		if state[k].live {
			t.Fatalf("held-back key %d is preloaded", k)
		}
	}
	replayStream(t, &w.s, state)
	for _, k := range w.held {
		if state[k] != (entry{valueOf(k), true}) {
			t.Fatalf("held-back key %d not set to its value", k)
		}
	}
}

func TestDurableReferenceMatchesBruteForce(t *testing.T) {
	w := newDurable(5).(*durable)
	state := map[uint64]entry{}
	for _, p := range w.preload {
		state[p.Key] = entry{p.Value, true}
	}
	replayStream(t, &w.s, state)
	live := 0
	for _, k := range w.checked {
		if state[k] != w.final[k] {
			t.Fatalf("key %d: final reference %v, brute force %v", k, w.final[k], state[k])
		}
		if state[k].live {
			live++
		}
	}
	if live != w.live {
		t.Fatalf("live keys: reference %d, brute force %d", w.live, live)
	}
}

func TestZipfHeadMatchesDistribution(t *testing.T) {
	const n, draws = 1000, 200_000
	z := newZipf(n, zipfTheta)
	r := newRNG(1, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(r)]++
	}
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), zipfTheta)
	}
	for rank := 0; rank < 2; rank++ {
		want := draws / math.Pow(float64(rank+1), zipfTheta) / zetan
		if got := float64(counts[rank]); math.Abs(got-want) > 0.05*want {
			t.Errorf("rank %d drawn %v times, want about %.0f", rank, got, want)
		}
	}
}

func TestDenseKeysHaveGaps(t *testing.T) {
	keys := denseKeys(newRNG(1, 1), 100_000)
	gaps := 0
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not ascending at %d", i)
		}
		if keys[i] != keys[i-1]+1 {
			gaps++
		}
	}
	if gaps == 0 || gaps > len(keys)/256 {
		t.Fatalf("%d gaps in %d keys", gaps, len(keys))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	want := []string{"durable", "ingest", "point", "scan"}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(defs))
			return
		}
		for i, m := range got {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program reports %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestFailedOperationMakesRunIncorrect(t *testing.T) {
	ok := roundResult{Attempted: 10, Ops: 10, Wall: time.Millisecond, Reads: []uint32{100}, Writes: []uint32{200}}
	ok.E2E = roundMetrics(ok)
	bad := ok
	bad.Failed = 1
	if out := summarize([]roundResult{ok, ok, ok}, false); !out.Correct || out.Failed != 0 || out.Attempted != 30 {
		t.Errorf("three clean rounds: got correct=%v failed=%d attempted=%d, want true 0 30", out.Correct, out.Failed, out.Attempted)
	}
	if out := summarize([]roundResult{ok, bad, ok}, false); out.Correct || out.Failed != 1 {
		t.Errorf("one failed operation: got correct=%v failed=%d, want false 1", out.Correct, out.Failed)
	}
}
