package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark runs on small shared VMs whose hypervisor steals CPU in
// bursts lasting from milliseconds to minutes. A wall-clock sample taken
// while the VM was descheduled measures the neighbours, not the program,
// so every wall-clock metric is computed from the samples during which
// no CPU was stolen (see README.md, "Steal gating").
const (
	monitorTick = 10 * time.Millisecond
	// stealMaxFrac is the stolen share of the VM's CPU capacity over a
	// sample's interval above which the sample is set aside.
	stealMaxFrac = 0.025
)

// monitor samples the VM's stolen CPU time (/proc/stat, 10 ms ticks),
// the process's CPU time and the run's two progress counters every
// monitorTick for the whole run.
type monitor struct {
	pkts  atomic.Int64 // packets handed to the system under test
	reads atomic.Int64 // dashboard reads completed

	mu   sync.Mutex
	rows []reading
	stop chan struct{}
	done chan struct{}
}

type reading struct {
	at, steal, cpu, pkts, reads int64
}

func startMonitor() *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(monitorTick)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *monitor) sample() {
	r := reading{at: time.Now().UnixNano(), steal: int64(stealTime()), cpu: int64(cpuTime()),
		pkts: m.pkts.Load(), reads: m.reads.Load()}
	m.mu.Lock()
	m.rows = append(m.rows, r)
	m.mu.Unlock()
}

func (m *monitor) close() {
	close(m.stop)
	<-m.done
}

// cover returns the readings that bracket [a, b]: the last at or before
// a and the first at or after b (taking a fresh reading if b is newer
// than the last one).
func (m *monitor) cover(a, b int64) (reading, reading) {
	m.mu.Lock()
	last := m.rows[len(m.rows)-1]
	m.mu.Unlock()
	if last.at < b {
		m.sample()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := m.rows
	i := sort.Search(len(rows), func(i int) bool { return rows[i].at > a }) - 1
	j := sort.Search(len(rows), func(i int) bool { return rows[i].at >= b })
	return rows[max(i, 0)], rows[min(j, len(rows)-1)]
}

// stolenFrac is the stolen share of the VM's CPU capacity over the
// readings covering [a, b] (wall ns).
func (m *monitor) stolenFrac(a, b int64) float64 {
	lo, hi := m.cover(a, b)
	span := hi.at - lo.at
	if span <= 0 {
		return 0
	}
	return float64(hi.steal-lo.steal) / float64(span*int64(runtime.GOMAXPROCS(0)))
}

// sums are counter deltas over a set of monitor slots.
type sums struct {
	wall, cpu, pkts, reads int64
}

// cleanSums adds up the slots inside [a, b] during which nothing was
// stolen. When such slots cover less than a tenth of [a, b] it takes the
// least-stolen slots covering half of it instead, so a run under
// continuous steal still reports.
func (m *monitor) cleanSums(a, b int64) sums {
	m.sample()
	m.mu.Lock()
	var slots []sums
	var stolen []int64
	var all sums
	for i := 1; i < len(m.rows); i++ {
		p, q := m.rows[i-1], m.rows[i]
		if p.at < a || q.at > b {
			continue
		}
		d := sums{q.at - p.at, q.cpu - p.cpu, q.pkts - p.pkts, q.reads - p.reads}
		slots = append(slots, d)
		stolen = append(stolen, q.steal-p.steal)
		all.add(d)
	}
	m.mu.Unlock()
	idx := make([]int, len(slots))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return stolen[idx[i]] < stolen[idx[j]] })
	var clean, out sums
	for i, d := range slots {
		if stolen[i] == 0 {
			clean.add(d)
		}
	}
	if clean.wall*10 >= all.wall {
		return clean
	}
	for _, i := range idx {
		if out.wall*2 >= all.wall {
			break
		}
		out.add(slots[i])
	}
	return out
}

func (s *sums) add(d sums) {
	s.wall += d.wall
	s.cpu += d.cpu
	s.pkts += d.pkts
	s.reads += d.reads
}

// gate books the steal over the interval of each wall-clock sample a
// metric is computed from.
type gate struct {
	m *monitor
	f []float64
}

func (e *env) gate() *gate { return &gate{m: e.mon} }

// add books the next sample's interval (wall ns).
func (g *gate) add(a, b int64) { g.f = append(g.f, g.m.stolenFrac(a, b)) }

// keep returns the indexes of the samples taken with at most
// stealMaxFrac stolen; if fewer than a tenth of them (or three)
// qualify, those of the least-stolen half.
func (g *gate) keep() []int {
	var out []int
	for i, f := range g.f {
		if f <= stealMaxFrac {
			out = append(out, i)
		}
	}
	if len(out) >= max(3, (len(g.f)+9)/10) {
		return out
	}
	idx := make([]int, len(g.f))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return g.f[idx[i]] < g.f[idx[j]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// pick returns the kept samples of xs (parallel to the gate's).
func (g *gate) pick(xs []float64) []float64 {
	var out []float64
	for _, i := range g.keep() {
		out = append(out, xs[i])
	}
	return out
}

// stealTime returns the hypervisor-stolen CPU time summed over all CPUs
// (/proc/stat, 10 ms tick resolution); 0 where the file is unavailable.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}
