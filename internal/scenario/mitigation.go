package scenario

import (
	"fmt"
	"net/netip"

	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/timeseries"
)

// MitigationResult is the what-if answer a MitigationSink accumulates:
// the weekly attack volume that a per-victim cap would have admitted
// versus mitigated.
type MitigationResult struct {
	// Admitted is the weekly count of attack flows under the cap.
	Admitted *timeseries.Series
	// Mitigated is the weekly count of attack flows over it.
	Mitigated *timeseries.Series
	// AttacksAdmitted and AttacksMitigated are the totals.
	AttacksAdmitted, AttacksMitigated int
}

// MitigationSink is a MiddlePolice-style what-if ingest.Sink: it caps the
// attack flows admitted per victim per week and accounts the rest as
// mitigated, answering "how much attack volume would a per-victim
// mitigation contract have let through" on any stream the pipeline
// ingests. Victim-hash sharding sends all of one victim's flows to one
// shard, so each branch keeps its per-victim counters lock-free; the
// admitted count per victim-week is min(count, cap) — independent of
// arrival order, so the result is deterministic for order-tolerant
// pipelines too. Use one fresh sink per run.
type MitigationSink struct {
	cap      int
	branches []*mitigationBranch
	res      MitigationResult
}

// NewMitigationSink returns a sink capping admitted attack flows at
// perVictimWeekly per victim per week.
func NewMitigationSink(perVictimWeekly int) *MitigationSink {
	return &MitigationSink{cap: perVictimWeekly}
}

// Open implements ingest.Sink: one branch per shard, spans taken from the
// pipeline config.
func (s *MitigationSink) Open(cfg *ingest.Config, shards int) ([]ingest.SinkBranch, error) {
	if s.cap <= 0 {
		return nil, fmt.Errorf("scenario: MitigationSink cap must be positive, got %d", s.cap)
	}
	if s.branches != nil {
		return nil, fmt.Errorf("scenario: MitigationSink reused; each run needs a fresh sink")
	}
	start := timeseries.WeekOf(cfg.Start)
	weeks := timeseries.WeeksBetween(start, timeseries.WeekOf(cfg.End)) + 1
	out := make([]ingest.SinkBranch, shards)
	s.branches = make([]*mitigationBranch, shards)
	for i := range out {
		b := &mitigationBranch{
			cap:       s.cap,
			admitted:  timeseries.NewSeries(start, weeks),
			mitigated: timeseries.NewSeries(start, weeks),
			counts:    make(map[victimWeek]int),
		}
		s.branches[i] = b
		out[i] = b
	}
	s.res = MitigationResult{
		Admitted:  timeseries.NewSeries(start, weeks),
		Mitigated: timeseries.NewSeries(start, weeks),
	}
	return out, nil
}

// Flush implements ingest.Sink: merge the per-shard branches.
func (s *MitigationSink) Flush() error {
	for _, b := range s.branches {
		if err := s.res.Admitted.AddSeries(b.admitted); err != nil {
			return err
		}
		if err := s.res.Mitigated.AddSeries(b.mitigated); err != nil {
			return err
		}
		s.res.AttacksAdmitted += int(b.admitted.Total())
		s.res.AttacksMitigated += int(b.mitigated.Total())
	}
	return nil
}

// Result returns the merged what-if answer; valid after the pipeline's
// Close.
func (s *MitigationSink) Result() MitigationResult { return s.res }

// victimWeek keys a branch's per-victim weekly counter.
type victimWeek struct {
	victim netip.Addr
	week   int
}

// mitigationBranch is one shard's lock-free counter set.
type mitigationBranch struct {
	cap                 int
	admitted, mitigated *timeseries.Series
	counts              map[victimWeek]int
}

// Consume implements ingest.SinkBranch.
func (b *mitigationBranch) Consume(f *honeypot.Flow, c honeypot.Classification) error {
	if c != honeypot.Attack {
		return nil
	}
	w := b.admitted.IndexOfTime(f.First)
	if w < 0 {
		return nil
	}
	k := victimWeek{f.Key.Victim, w}
	n := b.counts[k] + 1
	b.counts[k] = n
	if n <= b.cap {
		b.admitted.Values[w]++
	} else {
		b.mitigated.Values[w]++
	}
	return nil
}
