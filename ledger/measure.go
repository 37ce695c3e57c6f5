package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// roundResult is what one round of a workload measured: one set-up, one
// untimed warm-up and one measured phase of a fixed operation stream.
type roundResult struct {
	Setup      time.Duration      // time until the program can serve the workload
	Wall       time.Duration      // measured phase, wall clock
	CPU        time.Duration      // process user+system CPU over the measured phase
	Ops        int                // operations in the measured phase
	Reads      []uint32           // per-read latencies, ns
	Writes     []uint32           // per-write latencies, ns
	HeapPerKey float64            // live-heap growth per resident key, bytes
	Attempted  int                // operations checked, warm-up included
	Failed     int                // operations whose output disagreed with the reference
	Layers     map[string]float64 // traced runs only
	E2E        map[string]float64 `json:"-"` // end-to-end metrics, from roundMetrics
}

// pctl returns the p-quantile (0..1) of sorted samples, interpolating
// linearly between neighbouring order statistics.
func pctl(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

func sortedCopy(xs []uint32) []uint32 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// since returns the nanoseconds elapsed since t0 as a latency sample.
func since(t0 time.Time) uint32 {
	d := time.Since(t0)
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// cpuNow is the process's user+system CPU time so far, every thread
// included (getrusage on self).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// phase times one measured phase: wall clock, process CPU and, in traced
// runs, the collector's activity over the same interval.
type phase struct {
	t0     time.Time
	cpu0   time.Duration
	traced bool
	ms0    runtime.MemStats
}

func startPhase(traced bool) *phase {
	p := &phase{traced: traced}
	if traced {
		runtime.ReadMemStats(&p.ms0)
	}
	p.cpu0 = cpuNow()
	p.t0 = time.Now()
	return p
}

// stop ends the phase, fills r.Wall and r.CPU, and in traced runs adds the
// gc.* layer metrics per operation of r.Ops.
func (p *phase) stop(r *roundResult) {
	r.Wall = time.Since(p.t0)
	r.CPU = cpuNow() - p.cpu0
	if !p.traced {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ops := float64(max(r.Ops, 1))
	gcs := ms.NumGC - p.ms0.NumGC
	// PauseNs is a ring of the last 256 pauses; GC number n sits at
	// index (n-1)%256.
	first := p.ms0.NumGC + 1
	if ms.NumGC > 256 && first < ms.NumGC-255 {
		first = ms.NumGC - 255
	}
	var pauses []uint32
	for n := first; n <= ms.NumGC; n++ {
		pauses = append(pauses, uint32(min(ms.PauseNs[(n+255)%256], math.MaxUint32)))
	}
	slices.Sort(pauses)
	r.Layers["gc.cycles_per_mop"] = float64(gcs) / ops * 1e6
	r.Layers["gc.pause_p99_us"] = pctl(pauses, 0.99) / 1e3
	r.Layers["gc.alloc_bytes_per_op"] = float64(ms.TotalAlloc-p.ms0.TotalAlloc) / ops
	r.Layers["gc.allocs_per_op"] = float64(ms.Mallocs-p.ms0.Mallocs) / ops
}
