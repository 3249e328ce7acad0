package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak Go heap in use (live and not yet swept
// objects) by sampling runtime/metrics every few milliseconds; the read
// does not stop the world. It keeps the peak of every window, since the
// single largest reading of a long phase depends on where its
// collections happened to fall.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // per window, bytes
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	// heapWindow suits phases of several seconds; a replay pass is one
	// window of its own.
	heapWindow = 500 * time.Millisecond
)

func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		start := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			done := false
			select {
			case <-h.stop:
				done = true
			case <-tick.C:
			}
			if done || time.Since(start) >= window {
				h.peaks = append(h.peaks, float64(peak))
				peak, start = 0, time.Now()
			}
			if done {
				return
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the median window peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks) / (1 << 20)
}

// runtimeStats is a snapshot of the collector's cumulative counters.
type runtimeStats struct {
	gcCycles   uint64
	allocBytes uint64
	pauseNs    float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/pauses:seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	rs := runtimeStats{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
	// The pause histogram has no total; sum bucket midpoints, closing
	// the open-ended first and last buckets.
	h := s[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if lo < 0 || hi > 1e9 {
			lo, hi = max(lo, 0), min(hi, lo*2+1e-9)
		}
		rs.pauseNs += float64(c) * (lo + hi) / 2 * 1e9
	}
	return rs
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		gcCycles:   a.gcCycles - b.gcCycles,
		allocBytes: a.allocBytes - b.allocBytes,
		pauseNs:    a.pauseNs - b.pauseNs,
	}
}
