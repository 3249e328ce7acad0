package obs

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Progress emits a periodic structured status report for long replays:
// one slog record per interval carrying key=value attributes built by a
// caller-supplied snapshot function, plus a rate computed from the
// first value the snapshot returns (conventionally a packet or record
// count). It is the "-progress" flag's engine in cmd/booteringest,
// cmd/booterserve and cmd/bootersensor.
type Progress struct {
	lg       *slog.Logger
	interval time.Duration
	snapshot func() []Field

	mu       sync.Mutex
	stop     chan struct{}
	done     chan struct{}
	lastN    uint64
	lastWall time.Time
}

// Field is one key=value pair in a progress line.
type Field struct {
	// Key is the field name as printed.
	Key string
	// Value is rendered with %v; strings containing spaces are quoted.
	Value any
}

// F is shorthand for building a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// NewProgressLogger builds a progress reporter emitting through lg (at
// Info) every interval, so progress lines share the CLI's handler,
// format and level gate. The snapshot function is called from the
// reporter's own goroutine and must be safe to call concurrently with
// the instrumented work; its first field should be a monotone count
// (used for the derived rate field). Call Start to begin and Stop to
// emit a final line and halt.
func NewProgressLogger(lg *slog.Logger, interval time.Duration, snapshot func() []Field) *Progress {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &Progress{lg: lg, interval: interval, snapshot: snapshot}
}

// StartProgress is the CLIs' "-progress DUR" flag: it starts a progress
// reporter on the "progress" subsystem logger when every is positive
// and returns its stop function. A zero or negative interval returns a
// no-op.
func (l *Log) StartProgress(every time.Duration, snapshot func() []Field) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	p := NewProgressLogger(l.Logger("progress"), every, snapshot)
	p.Start()
	return p.Stop
}

// Start launches the ticker goroutine. Starting a started logger is a
// no-op.
func (p *Progress) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	p.lastWall = time.Now()
	go p.loop(p.stop, p.done)
}

// Stop halts the ticker and emits one final line so short runs still
// report. Stopping a stopped (or never started) logger is a no-op.
func (p *Progress) Stop() {
	p.mu.Lock()
	stop, done := p.stop, p.done
	p.stop, p.done = nil, nil
	p.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	p.emit()
}

// loop ticks until stopped.
func (p *Progress) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.emit()
		}
	}
}

// emit logs one progress record: snapshot fields as attributes, plus
// the derived rate when the leading field advanced.
func (p *Progress) emit() {
	fields := p.snapshot()
	now := time.Now()
	var rate float64
	if len(fields) > 0 {
		if n, ok := toUint64(fields[0].Value); ok {
			p.mu.Lock()
			dt := now.Sub(p.lastWall).Seconds()
			if dt > 0 && n >= p.lastN {
				rate = float64(n-p.lastN) / dt
			}
			p.lastN, p.lastWall = n, now
			p.mu.Unlock()
		}
	}
	attrs := make([]slog.Attr, 0, len(fields)+1)
	for _, f := range fields {
		attrs = append(attrs, slog.Any(f.Key, f.Value))
	}
	if rate > 0 {
		attrs = append(attrs, slog.String("rate", fmt.Sprintf("%.0f/s", rate)))
	}
	p.lg.LogAttrs(context.Background(), slog.LevelInfo, "progress", attrs...)
}

// toUint64 extracts a count from the common integer kinds a snapshot
// returns.
func toUint64(v any) (uint64, bool) {
	switch n := v.(type) {
	case uint64:
		return n, true
	case int64:
		if n < 0 {
			return 0, false
		}
		return uint64(n), true
	case int:
		if n < 0 {
			return 0, false
		}
		return uint64(n), true
	case uint:
		return uint64(n), true
	}
	return 0, false
}

// PprofMux returns an http.Handler exposing the net/http/pprof profiles
// on their conventional /debug/pprof/ paths, built on an explicit mux so
// nothing leaks into http.DefaultServeMux. The cmds mount it behind the
// -pprof flag.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePprof starts an HTTP server for PprofMux on addr in a background
// goroutine and returns the server (Close to stop) and the bound address.
// It is the one-call form of the -pprof flag.
func ServePprof(addr string) (*http.Server, string, error) {
	srv := &http.Server{Addr: addr, Handler: PprofMux()}
	ln, err := listen(addr)
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// listen opens the TCP listener for ServePprof (split out so the bound
// address is known before Serve starts).
func listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
