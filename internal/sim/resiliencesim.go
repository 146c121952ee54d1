package sim

import (
	"math"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/eventq"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/resilience"
)

// rsRun is the engine-side runtime of a resilience config: the breaker
// bank, the retry-budget bucket, the jitter state and the per-task probe /
// disposition vectors. It exists only when a config is present, so the
// disabled path touches none of it and stays byte-identical to RunHedged.
type rsRun struct {
	cfg *resilience.Config

	budget   resilience.Budget
	budgetOn bool
	prev     []core.Time // per-task previous jittered delay (decorrelated mode)
	bdrop    []bool      // per-task budget-drop disposition (metrics.BudgetDropped)

	brk     *resilience.Breakers
	probe   []bool // per-task: the in-flight attempt is a half-open probe
	curSpan []int  // per-server: 1 + index into spans of the open episode (0 = none)
	spans   []resilience.Span
	disp    core.Times   // dispatch instants for the breaker-legality audit
	brkBuf  core.ProcSet // dispatch-time breaker-filter scratch
}

// opened books a breaker open episode at now: it ends the previous span
// (a probe-failure re-open), starts a new one, arms the cooldown-expiry
// event and notifies the probe.
func (rs *rsRun) opened(j int, now core.Time, metrics *ElasticMetrics, events *eventq.Queue[faultEvent], probe obs.Probe) {
	rs.endSpan(j, now, false)
	metrics.BreakerOpens++
	rs.spans = append(rs.spans, resilience.Span{
		Server:     j,
		OpenedAt:   now,
		HalfOpenAt: core.Time(math.NaN()),
		EndedAt:    core.Time(math.NaN()),
	})
	rs.curSpan[j] = len(rs.spans)
	events.Push(rs.brk.OpenUntil(j), faultEvent{kind: evBreaker, server: j})
	if probe != nil {
		probe.OnEvent(obs.Event{Kind: obs.BreakerOpen, T: now, Server: j})
	}
}

// halfOpened stamps the open episode's half-open instant.
func (rs *rsRun) halfOpened(j int, now core.Time) {
	if si := rs.curSpan[j]; si > 0 {
		rs.spans[si-1].HalfOpenAt = now
	}
}

// closed books a probe-success close at now and queues a same-instant
// breaker event so parked work wakes onto the readmitted server.
func (rs *rsRun) closed(j int, now core.Time, metrics *ElasticMetrics, events *eventq.Queue[faultEvent], probe obs.Probe) {
	metrics.BreakerCloses++
	rs.endSpan(j, now, true)
	events.Push(now, faultEvent{kind: evBreaker, server: j})
	if probe != nil {
		probe.OnEvent(obs.Event{Kind: obs.BreakerClose, T: now, Server: j})
	}
}

// endSpan finishes server j's current open episode (no-op without one).
func (rs *rsRun) endSpan(j int, now core.Time, closedBy bool) {
	if si := rs.curSpan[j]; si > 0 {
		rs.spans[si-1].EndedAt = now
		rs.spans[si-1].Closed = closedBy
		rs.curSpan[j] = 0
	}
}

// failed classifies a completion outcome for the breaker: a failure when
// the configured slow factor is set and the attempt's observed service
// time reached SlowFactor × the task's nominal processing time.
func (rs *rsRun) failed(inst *core.Instance, task int, start, when core.Time) bool {
	sf := rs.brk.SlowFactor()
	if sf <= 0 {
		return false
	}
	proc := inst.Tasks[task].Proc
	if proc <= 0 {
		return false
	}
	return float64((when-start)/proc) >= sf
}

// RunResilient is the resilient superset of RunHedged: the same unified
// fault-replaying, overload-controlled, elastic, hedged simulation with the
// metastable-failure protections of internal/resilience attached. A nil
// rcfg is byte-identical to RunHedged — identical schedules and metrics,
// with nil resilience vectors and zero counters — asserted by
// TestRunResilientNilConfigEquivalence and alloc-pinned by
// TestRunResilientNilConfigAllocs.
//
// With a config:
//
//   - Jitter (rcfg.Jitter) randomizes every retry's backoff delay with a
//     pure hash of (seed, task, attempt) — full, equal or decorrelated —
//     so synchronized retry waves from a mass outage spread out instead of
//     re-saturating the recovered servers. Replayable: equal seeds retry
//     at identical instants.
//   - The retry budget (rcfg.RetryBudget) is a token bucket refilled by
//     every first-attempt dispatch and debited by every retry, so retry
//     traffic can never exceed the configured fraction of live traffic.
//     An over-budget retry drops its task with the BudgetDropped
//     disposition (never parked forever); RetriesIssued + RetriesDropped
//     == RetriesRequested holds exactly and is audited.
//   - Per-server circuit breakers (rcfg.Breaker) watch a sliding window of
//     dispatch outcomes — crashes, and completions slower than SlowFactor ×
//     nominal (how a gray-slow server that never crashes is caught). A
//     tripped breaker blocks dispatches for the cooldown, then admits a
//     capped number of half-open probes; a probe success closes it, a probe
//     failure re-opens it. Failover routing filters breaker-open servers
//     out of every candidate set (hedge copies go only to closed breakers);
//     a task whose whole effective set is open parks and wakes at the next
//     breaker transition — it never livelocks.
//
// Each call runs in a private Arena; batch callers reuse one arena's
// RunResilient method to amortize the per-run allocations away.
func RunResilient(inst *core.Instance, router Router, plan *faults.Plan, policy RetryPolicy, cfg *overload.Config, ecfg *elastic.Config, hcfg *hedge.Config, rcfg *resilience.Config, probe obs.Probe) (*core.Schedule, *ElasticMetrics, error) {
	return NewArena().RunResilient(inst, router, plan, policy, cfg, ecfg, hcfg, rcfg, probe)
}

// RunHedged is the arena variant of the package-level RunHedged. It is
// RunResilient with the resilience layer disabled — the engine lives there;
// a nil resilience config is byte-identical by construction (and
// property-tested).
func (a *Arena) RunHedged(inst *core.Instance, router Router, plan *faults.Plan, policy RetryPolicy, cfg *overload.Config, ecfg *elastic.Config, hcfg *hedge.Config, probe obs.Probe) (*core.Schedule, *ElasticMetrics, error) {
	return a.RunResilient(inst, router, plan, policy, cfg, ecfg, hcfg, nil, probe)
}
