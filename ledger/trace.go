package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. One span covers each workload operation; a child span covers
// each call the benchmark makes into a layer of the program.
const (
	spSetup        = iota // one workload set-up
	spCoreBulkload        // Bulkload
	spGPLPartition        // gpl.Partition over the bulkload keys
	spServerStart         // server.NewServerWith (the restart, for durable)
	spServerPre           // server.Preload
	spOp                  // one workload operation (a call or a burst)
	spCoreGet
	spCoreInsert
	spCoreScan
	spCoreGetBatch
	spCoreInsertBatch
	spNetWrite // burst written to the socket
	spNetRead  // burst replies read back
	spNetStats // STATS round trip
	spParse    // netproto over the run's request lines
	spWALCommit
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"setup", "core.Bulkload", "gpl.Partition",
	"server.NewServerWith", "server.Preload", "op", "core.Get", "core.Insert",
	"core.ScanAppend", "core.GetBatch", "core.InsertBatch", "net.write",
	"net.read", "net.STATS", "netproto.parse", "wal.Commit",
}

// maxSpans caps the spans a traced run keeps for its spans file; the
// per-name counts and sums behind the layer metrics cover every span.
const maxSpans = 200_000

type span struct {
	name       uint16
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// spanH is an open span. id is -1 once the span buffer is full.
type spanH struct {
	id    int32
	name  uint16
	start int64
}

var noSpan = spanH{id: -1}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer is the untraced run: every method is then a no-op, and the
// workloads skip the span calls altogether on their hot loops.
type tracer struct {
	epoch time.Time
	spans []span
	count [nSpanNames]int64
	total [nSpanNames]int64 // ns
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1024)}
}

func (t *tracer) begin(name int, parent spanH) spanH {
	if t == nil {
		return noSpan
	}
	h := spanH{id: -1, name: uint16(name), start: int64(time.Since(t.epoch))}
	if len(t.spans) < maxSpans {
		h.id = int32(len(t.spans))
		t.spans = append(t.spans, span{name: h.name, parent: parent.id, start: h.start})
	}
	return h
}

// end closes h and returns its duration in ns.
func (t *tracer) end(h spanH) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	if h.id >= 0 {
		t.spans[h.id].end = now
	}
	t.count[h.name]++
	t.total[h.name] += now - h.start
	return now - h.start
}

// meanNs is the mean duration of the spans named name, or 0 if none.
func (t *tracer) meanNs(name int) float64 {
	if t == nil || t.count[name] == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(t.count[name])
}

// reset drops the per-name sums so that a round's layer metrics cover that
// round alone; the span buffer keeps filling across rounds until full.
func (t *tracer) reset() {
	if t != nil {
		t.count = [nSpanNames]int64{}
		t.total = [nSpanNames]int64{}
	}
}

// write stores the spans as CSV: id, parent id (-1 for a root), name, and
// start and end in ns since the run's first span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
