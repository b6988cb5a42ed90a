package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a workload sets up; setup_s is the median.
const setupRepeats = 3

// setUp runs fn setupRepeats times and returns the last product and the
// median duration in seconds. discard, when non-nil, releases each earlier
// product.
func setUp[T any](fn func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := fn()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(times, 0.5), nil
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place;
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memProbe records the Go runtime's allocation and GC counters over a window.
type memProbe struct{ before runtime.MemStats }

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *memProbe) report(v values) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	v["runtime.alloc_mb"] = float64(after.TotalAlloc-p.before.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(after.NumGC - p.before.NumGC)
	v["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6
}

// stopwatchOverheadPct is the share of a window that laps spent reading the
// clock, from the measured cost of one lap.
func stopwatchOverheadPct(laps int, window time.Duration) float64 {
	if laps == 0 || window <= 0 {
		return 0
	}
	const n = 100000
	sw := &stopwatch{last: time.Now()}
	start := time.Now()
	for i := 0; i < n; i++ {
		sw.lap()
	}
	perLap := float64(time.Since(start)) / n
	return 100 * float64(laps) * perLap / float64(window)
}
