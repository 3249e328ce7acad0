package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"booters"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/obs"
	"booters/internal/obs/trace"
	"booters/internal/scenario"
	"booters/internal/spool"
	"booters/internal/timeseries"
)

// Seed defines -seed alone, for the commands that generate a dataset
// rather than a packet stream.
func Seed(fs *flag.FlagSet) *int64 {
	seed := new(int64)
	seedVar(fs, seed)
	return seed
}

func seedVar(fs *flag.FlagSet, p *int64) {
	fs.Int64Var(p, "seed", 20191021, "generator seed")
}

// Workload is the -scenario group and, for the commands that generate
// their own packet stream, -seed/-weeks/-attacks: the parameters of the
// market scenario that runs when no -scenario is given. Either way the
// workload is a scenario run with a manifest to verify against.
type Workload struct {
	// Spec is -scenario: a catalog name, the path of a JSON config
	// (docs/SCENARIOS.md), or "list" for the catalog.
	Spec    string
	Seed    int64
	Weeks   int
	Attacks float64
	// start is the command's fixed first day of the market scenario.
	start time.Time
}

// ScenarioFlag defines -scenario alone, with the command's help text.
func ScenarioFlag(fs *flag.FlagSet, usage string) *Workload {
	w := &Workload{}
	fs.StringVar(&w.Spec, "scenario", "", usage)
	return w
}

// WorkloadFlags defines -scenario, with the command's help text, and
// -seed, -weeks and -attacks with the command's default stream length
// and weekly attack rate for a market scenario starting at start.
func WorkloadFlags(fs *flag.FlagSet, usage string, start time.Time, weeks int, attacks float64) *Workload {
	w := ScenarioFlag(fs, usage)
	w.start = start
	seedVar(fs, &w.Seed)
	fs.IntVar(&w.Weeks, "weeks", weeks, "generated stream length in weeks")
	fs.Float64Var(&w.Attacks, "attacks", attacks, "mean attack flows per week")
	return w
}

// List prints the catalog to out when -scenario list was given and reports
// whether it did, so the command can exit.
func (w *Workload) List(out io.Writer) bool {
	if w.Spec != "list" {
		return false
	}
	for _, name := range scenario.Names() {
		fmt.Fprintf(out, "%-20s %s\n", name, scenario.Describe(name))
	}
	return true
}

// Generate generates the workload and logs its size: the -scenario run
// when one was given, otherwise the market scenario of -seed/-weeks/
// -attacks, with half as many scans as attacks.
func (w *Workload) Generate(lg *slog.Logger) (*scenario.Run, error) {
	t0 := time.Now()
	var run *scenario.Run
	var err error
	switch {
	case w.Spec != "":
		run, err = booters.GenerateScenario(w.Spec)
	case !(w.Attacks > 0):
		err = fmt.Errorf("-attacks must be positive, got %v", w.Attacks)
	default:
		run, err = scenario.Generate(scenario.Config{
			Name:            "market",
			Seed:            w.Seed,
			Start:           w.start,
			Weeks:           w.Weeks,
			BaselineAttacks: w.Attacks,
			ScansPerWeek:    int(w.Attacks / 2),
			Market:          &scenario.MarketDynamics{},
		})
	}
	if err != nil {
		return nil, err
	}
	m := run.Manifest
	lg.Info("scenario generated", "name", m.Name, "packets", len(run.Stream()),
		"attacks", m.Attacks, "scans", m.Scans, "weeks", m.Weeks,
		"elapsed", time.Since(t0).Round(time.Millisecond))
	return run, nil
}

// Verify checks a closed pipeline's weekly global series against a
// scenario manifest: the panel must equal the planned weekly counts, and
// when the manifest stakes a tolerance on any effect the NB2 fit must
// recover every such effect. Each passed check is reported on w.
func Verify(w io.Writer, m *scenario.Manifest, global *timeseries.Series) error {
	if err := m.VerifyPanel(global); err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario %s: panel equals the planned weekly counts (%d weeks)\n", m.Name, m.Weeks)
	if !slices.ContainsFunc(m.Effects, func(e scenario.InjectedEffect) bool { return e.CoefTolerance > 0 }) {
		return nil
	}
	model, err := m.Fit(global)
	if err != nil {
		return err
	}
	if err := m.VerifyFit(model); err != nil {
		return err
	}
	for _, e := range m.Effects {
		got, err := model.Effect(e.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "effect %s: fitted %.4f vs injected %.4f (tolerance %.3f) — recovered\n",
			e.Name, got.Coef.Estimate, e.ExpectedCoef, e.CoefTolerance)
	}
	return nil
}

// Record is the -record/-compress group: spool a stream to disk.
type Record struct{ Dir, Codec string }

// RecordFlags defines -record, with the command's help text, and
// -compress.
func RecordFlags(fs *flag.FlagSet, usage string) *Record {
	r := &Record{}
	fs.StringVar(&r.Dir, "record", "", usage)
	fs.StringVar(&r.Codec, "compress", "none", "spool block codec for -record: none or lz4")
	return r
}

// Write spools packets to the -record directory as wire-format datagrams
// under the -compress codec, counting into obs.Default()'s spool
// families, and logs the recording with its on-disk footprint. With a
// manifest it also writes scenario.ManifestFile next to the segments, so
// a later replay can verify the recorded ground truth. progress > 0
// emits a progress line that often while recording.
func (r *Record) Write(logs *obs.Log, progress time.Duration, packets []honeypot.Packet, m *scenario.Manifest) error {
	codec, err := spool.CodecByName(r.Codec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	w, err := spool.Create(r.Dir, spool.Options{Codec: codec, Metrics: obs.Default()})
	if err != nil {
		return err
	}
	var recorded atomic.Uint64
	stop := logs.StartProgress(progress, func() []obs.Field {
		return []obs.Field{obs.F("datagrams", recorded.Load())}
	})
	defer stop()
	for _, d := range ingest.Datagrams(packets) {
		if err := w.Append(d); err != nil {
			w.Close()
			return err
		}
		recorded.Add(1)
	}
	if err := w.Close(); err != nil {
		return err
	}
	n, elapsed := w.Count(), time.Since(t0)
	attrs := []any{"datagrams", n, "dir", r.Dir, "codec", codec.Name(),
		"elapsed", elapsed.Round(time.Millisecond), "rate", fmt.Sprintf("%.0f/s", float64(n)/elapsed.Seconds())}
	if idx, err := spool.LoadIndex(r.Dir); err == nil && n > 0 {
		var stored uint64
		for _, s := range idx.Segments {
			stored += s.StoredBytes
		}
		attrs = append(attrs, "bytes_per_packet", fmt.Sprintf("%.1f", float64(stored)/float64(n)))
	}
	logs.Logger("spool").Info("recorded spool", attrs...)
	if m == nil {
		return nil
	}
	return m.WriteFile(filepath.Join(r.Dir, scenario.ManifestFile))
}

// Replay is the -replay/-replay-workers group: replay a recorded spool.
type Replay struct {
	Dir     string
	Workers int
}

// ReplayFlags defines -replay, with the command's help text, and
// -replay-workers.
func ReplayFlags(fs *flag.FlagSet, usage string) *Replay {
	r := &Replay{}
	fs.StringVar(&r.Dir, "replay", "", usage)
	fs.IntVar(&r.Workers, "replay-workers", 1, "concurrent spool segment readers")
	return r
}

// Span returns the panel span a replay of the spool needs: the earliest
// and latest record timestamps its index attests.
func (r *Replay) Span() (start, end time.Time, err error) {
	idx, err := spool.LoadIndex(r.Dir)
	if err != nil {
		return start, end, err
	}
	for _, s := range idx.Segments {
		if !s.Indexed || s.Records == 0 {
			continue
		}
		if start.IsZero() || s.Min.Before(start) {
			start = s.Min
		}
		if s.Max.After(end) {
			end = s.Max
		}
	}
	if start.IsZero() {
		return start, end, fmt.Errorf("spool %s has no indexed time range; record it with -record", r.Dir)
	}
	return start, end, nil
}

// Shards defines -shards.
func Shards(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "pipeline shards (0 = GOMAXPROCS)")
}

// Profile is the -pprof/-progress group.
type Profile struct {
	Pprof    string
	Progress time.Duration
}

// ProfileFlags defines -pprof and -progress.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.Pprof, "pprof", "", "serve net/http/pprof profiles on this address (empty = off)")
	fs.DurationVar(&p.Progress, "progress", 0, "emit a structured progress line to stderr this often (0 = off)")
	return p
}

// ServePprof serves the net/http/pprof profiles when -pprof is set and
// logs where.
func (p *Profile) ServePprof(lg *slog.Logger) error {
	if p.Pprof == "" {
		return nil
	}
	_, bound, err := obs.ServePprof(p.Pprof)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	lg.Info("pprof serving", "url", "http://"+bound+"/debug/pprof/")
	return nil
}

// Logging is the -log/-trace-sample/-trace-slow group.
type Logging struct {
	spec   string
	sample int
	slow   time.Duration
}

// LogFlags defines -log, -trace-sample and -trace-slow.
func LogFlags(fs *flag.FlagSet) *Logging {
	l := &Logging{}
	fs.StringVar(&l.spec, "log", "info", "log level spec: LEVEL[,SUBSYSTEM=LEVEL]... (e.g. info,wire=debug)")
	fs.IntVar(&l.sample, "trace-sample", 0, "trace one batch in N end to end, see docs/TRACING.md (0 = off)")
	fs.DurationVar(&l.slow, "trace-slow", 250*time.Millisecond, "pin and log spans at least this slow regardless of sampling")
	return l
}

// Open returns the per-subsystem loggers writing to w and, when
// -trace-sample is set, the pipeline flight recorder (nil otherwise).
func (l *Logging) Open(w io.Writer) (*obs.Log, *trace.Tracer, error) {
	logs, err := obs.NewLog(w, l.spec)
	if err != nil {
		return nil, nil, fmt.Errorf("-log: %w", err)
	}
	var tr *trace.Tracer
	if l.sample > 0 {
		tr = trace.New(trace.Config{
			SampleEvery:   l.sample,
			SlowThreshold: l.slow,
			Log:           logs.Logger("trace"),
		})
	}
	return logs, tr, nil
}

// Wire is a wire session endpoint (docs/WIRE_PROTOCOL.md): the address
// to dial or listen on and the handshake's shared secret.
type Wire struct{ Addr, Token string }

// WireFlags defines the endpoint's address flag, named and described by
// the command since one side dials and the other listens, and its token
// flag.
func WireFlags(fs *flag.FlagSet, addr, addrUsage, token string) *Wire {
	w := &Wire{}
	fs.StringVar(&w.Addr, addr, "", addrUsage)
	fs.StringVar(&w.Token, token, "", "shared secret of the wire session handshake")
	return w
}

// Logf adapts a slog logger to the printf-style session log callback of
// the wire package.
func Logf(lg *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) { lg.Info(fmt.Sprintf(format, args...)) }
}
