package flowsched

// Facade over the hedged-execution subsystem (internal/hedge +
// sim.RunHedged): speculative duplicate dispatch with first-win
// cancellation for tail tolerance.

import (
	"flowsched/internal/hedge"
	"flowsched/internal/sim"
)

type (
	// HedgeConfig describes the hedging of one run: when a dispatched task's
	// in-queue + in-service age crosses the trigger — a fixed Delay, a live
	// flow-time Quantile (warmed after MinSamples completions), or Tied mode
	// (two copies enqueued up front, loser revoked at service start) — a
	// speculative copy races the primary on the best other eligible server;
	// first completion wins and the loser is cancelled (mid-service only
	// with CancelRunning). MaxHedges caps the copies issued per run. A nil
	// *HedgeConfig makes SimulateHedged byte-identical to SimulateElastic.
	HedgeConfig = hedge.Config
)

// SimulateHedged is SimulateElastic with hedged execution attached: when a
// dispatched task ages past hcfg's trigger, the engine speculatively
// re-dispatches a copy to the best *other* eligible server of its
// processing set — respecting membership remapping, outages, ejection
// preference and the admission deadline budget — and the first completion
// wins; the losing attempt is cancelled before it starts service, or
// mid-service when hcfg.CancelRunning is set (otherwise it runs to
// completion as duplicate work, reported in ElasticMetrics.DuplicateWork
// and bounded by DuplicateRatio). Cancelled copies never count in flow
// time, and exactly one effective completion is recorded per task — the
// invariants the auditor re-checks on every hedged chaos trial.
//
// A nil hcfg reproduces SimulateElastic bit for bit; the probe additionally
// receives the hedge, hedge-win and hedge-cancel events.
func SimulateHedged(inst *Instance, router Router, plan *FaultPlan, policy RetryPolicy, cfg *OverloadConfig, ecfg *ElasticConfig, hcfg *HedgeConfig, probe Probe) (*Schedule, *ElasticMetrics, error) {
	return sim.RunHedged(inst, router, plan, policy, cfg, ecfg, hcfg, probe)
}
