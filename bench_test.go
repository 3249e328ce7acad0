package booters

// The benchmark harness regenerates every table and figure in the paper's
// evaluation section: one bench per internal/core exhibit, named after it
// (BenchmarkTable1GlobalModel runs "Table 1"). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full reproduction path for its exhibit —
// dataset slicing, model fitting and check evaluation — against a panel and
// environment generated once per process. Ablation benchmarks at the end
// time the modelling choices the paper argues for: the NB2 family over
// Poisson, seasonal dummies, the movable Easter term and the
// likelihood-searched window durations.

import (
	"sync"
	"testing"
	"time"

	"booters/internal/core"
	"booters/internal/glm"
	"booters/internal/honeypot"
	"booters/internal/its"
	"booters/internal/protocols"
	"booters/internal/stats"
	"booters/internal/timeseries"
)

var (
	benchOnce sync.Once
	benchEnv  *core.Env
	benchErr  error
)

func benchSetup(b *testing.B) *core.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = core.NewEnv(DefaultSeed)
	})
	if benchErr != nil {
		b.Fatalf("setup: %v", benchErr)
	}
	return benchEnv
}

// runExperiment benches one exhibit's reproduction and fails the benchmark
// if any paper-vs-measured check regresses.
func runExperiment(b *testing.B, id string) {
	env := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunOne(env, id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			for _, c := range res.Checks {
				if !c.Pass {
					b.Fatalf("%s / %s: paper %q, measured %q", id, c.Name, c.Paper, c.Measured)
				}
			}
		}
	}
}

func BenchmarkTable1GlobalModel(b *testing.B)         { runExperiment(b, "Table 1") }
func BenchmarkTable2PerCountry(b *testing.B)          { runExperiment(b, "Table 2") }
func BenchmarkTable3CountryShares(b *testing.B)       { runExperiment(b, "Table 3") }
func BenchmarkFigure1Timeline(b *testing.B)           { runExperiment(b, "Figure 1") }
func BenchmarkFigure2ModelFit(b *testing.B)           { runExperiment(b, "Figure 2") }
func BenchmarkFigure3CountryStack(b *testing.B)       { runExperiment(b, "Figure 3") }
func BenchmarkFigure4CountryCorrelation(b *testing.B) { runExperiment(b, "Figure 4") }
func BenchmarkFigure5NCAAnalysis(b *testing.B)        { runExperiment(b, "Figure 5") }
func BenchmarkFigure6ProtocolStack(b *testing.B)      { runExperiment(b, "Figure 6") }
func BenchmarkFigure7SelfReported(b *testing.B)       { runExperiment(b, "Figure 7") }
func BenchmarkFigure8MarketChurn(b *testing.B)        { runExperiment(b, "Figure 8") }
func BenchmarkSelfReportScreens(b *testing.B)         { runExperiment(b, "Section 3") }
func BenchmarkCoverageValidation(b *testing.B)        { runExperiment(b, "Section 3b") }
func BenchmarkInterventionDetection(b *testing.B)     { runExperiment(b, "Section 4") }
func BenchmarkRobustnessPlacebo(b *testing.B)         { runExperiment(b, "Robustness") }

// BenchmarkPanelGeneration times the full dataset generator (five-year
// panel plus the market simulation behind the self-report data).
func BenchmarkPanelGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GeneratePanel(DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalModelEndToEnd times the Table 1 fit including the
// duration search (the paper's full estimation procedure).
func BenchmarkGlobalModelEndToEnd(b *testing.B) {
	env := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGlobalModel(env.Panel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches: the paper's modelling choices, each against its
// simpler alternative ----------------------------------------------------

// ablationSeries returns the global model-window series.
func ablationSeries(b *testing.B) *timeseries.Series {
	env := benchSetup(b)
	from, to := ModelWindow()
	return env.Panel.Global.Slice(from, to)
}

// BenchmarkAblationNBvsPoisson compares the paper's NB2 family against the
// Poisson baseline on the same design; the report lines carry the
// substantive result (NB must win on log-likelihood).
func BenchmarkAblationNBvsPoisson(b *testing.B) {
	s := ablationSeries(b)
	specNB := its.DefaultSpec(Table1Interventions())
	specP := specNB
	specP.Family = glm.Poisson
	b.ReportAllocs()
	b.ResetTimer()
	var llNB, llP float64
	for i := 0; i < b.N; i++ {
		mNB, err := its.Fit(s, specNB)
		if err != nil {
			b.Fatal(err)
		}
		mP, err := its.Fit(s, specP)
		if err != nil {
			b.Fatal(err)
		}
		llNB, llP = mNB.Fit.LogLik, mP.Fit.LogLik
		if llNB <= llP {
			b.Fatalf("NB loglik %.1f did not beat Poisson %.1f on overdispersed counts", llNB, llP)
		}
	}
	b.ReportMetric(llNB-llP, "loglik-gain")
}

// BenchmarkAblationSeasonality fits the model with and without the
// seasonal dummies (the deviation the paper attributes to Kopp et al.,
// who "only model attacks over the period Oct 2018 to Jan 2019, thereby
// ignoring seasonal effects").
func BenchmarkAblationSeasonality(b *testing.B) {
	s := ablationSeries(b)
	with := its.DefaultSpec(Table1Interventions())
	without := with
	without.Seasonal = false
	b.ReportAllocs()
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		mW, err := its.Fit(s, with)
		if err != nil {
			b.Fatal(err)
		}
		mWo, err := its.Fit(s, without)
		if err != nil {
			b.Fatal(err)
		}
		gap = mW.Fit.LogLik - mWo.Fit.LogLik
		if gap <= 0 {
			b.Fatal("seasonal dummies should improve the fit")
		}
	}
	b.ReportMetric(gap, "loglik-gain")
}

// BenchmarkAblationEaster times the movable-Easter component's
// contribution (the paper includes it because school holidays drive
// booting and Easter moves).
func BenchmarkAblationEaster(b *testing.B) {
	s := ablationSeries(b)
	with := its.DefaultSpec(Table1Interventions())
	without := with
	without.Easter = false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := its.Fit(s, with); err != nil {
			b.Fatal(err)
		}
		if _, err := its.Fit(s, without); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDurationSearch compares fixed paper durations against
// the likelihood search over window lengths.
func BenchmarkAblationDurationSearch(b *testing.B) {
	env := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGlobalModelFixed(env.Panel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks for the hot paths ----------------------------------

// BenchmarkNBRegression times one NB2 fit on the paper-sized design
// (148 x 19) without the duration search.
func BenchmarkNBRegression(b *testing.B) {
	s := ablationSeries(b)
	spec := its.DefaultSpec(Table1Interventions())
	x, names := its.Design(s, spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := glm.Fit(glm.NegativeBinomial, x, s.Values, names, glm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowAggregation times the honeypot flow pipeline on a merged
// log of 10k packets across 50 victims.
func BenchmarkFlowAggregation(b *testing.B) {
	env := benchSetup(b)
	_ = env
	base := time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
	tbl := benchGeoTable
	packets := make([]honeypot.Packet, 0, 10000)
	for i := 0; i < 10000; i++ {
		victim, err := tbl.AddrFor("US", uint32(i%50))
		if err != nil {
			b.Fatal(err)
		}
		packets = append(packets, honeypot.Packet{
			Time:   base.Add(time.Duration(i) * 200 * time.Millisecond),
			Victim: victim,
			Proto:  protocols.LDAP,
			Sensor: i % 8,
			Size:   64,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := honeypot.NewAggregator()
		for _, p := range packets {
			if err := agg.Offer(p); err != nil {
				b.Fatal(err)
			}
		}
		if flows := agg.Flush(); len(flows) == 0 {
			b.Fatal("no flows")
		}
	}
	b.ReportMetric(10000, "packets/op")
}

// BenchmarkProtocolCodecs times request build + validate + response for
// every protocol (the sensor fast path).
func BenchmarkProtocolCodecs(b *testing.B) {
	reqs := make([][]byte, protocols.Count())
	for i, p := range protocols.All() {
		reqs[i] = p.Request()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range protocols.All() {
			if err := p.ValidateRequest(reqs[j]); err != nil {
				b.Fatal(err)
			}
			if resp := p.Response(reqs[j], 512); len(resp) == 0 {
				b.Fatal("empty response")
			}
		}
	}
}

// BenchmarkNormalQuantile times the inverse-CDF hot path used in every CI
// computation.
func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := float64(i%999+1) / 1000
		if _, err := stats.NormalQuantile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGeoTable is shared by the flow-aggregation benchmark.
var benchGeoTable = newBenchGeoTable()
