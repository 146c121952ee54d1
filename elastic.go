package flowsched

// Facade over the elastic-membership subsystem (internal/elastic +
// sim.RunElastic): online scale-up with warm-up, scale-down with drain and
// handoff, scripted and/or autoscaled membership, and the replayable
// membership log the auditor re-checks.

import (
	"flowsched/internal/elastic"
	"flowsched/internal/sim"
)

type (
	// ElasticConfig describes the online membership of one run: the
	// instance's M is the slot capacity, membership moves within [Min, Max]
	// from Initial, joiners warm up for WarmUp, and changes come from a
	// Script, an AutoscalePolicy, or both. A nil *ElasticConfig makes
	// SimulateElastic byte-identical to SimulateGuarded.
	ElasticConfig = elastic.Config
	// ScaleEvent is one scripted membership change: add Delta machines
	// (Delta > 0, each with warm-up) or drain −Delta (Delta < 0) at
	// instant At.
	ScaleEvent = elastic.Event
	// AutoscalePolicy drives membership from a CapacityEstimator with
	// hysteresis (UpUtil/DownUtil), sustain and cooldown.
	AutoscalePolicy = elastic.Autoscaler
	// MembershipLog is the replayable membership history of an elastic run:
	// capacity, initial active prefix and every join/drain with timestamps.
	// Audit re-derives dispatch-time eligibility from it with the same
	// effective-set walk the engine used.
	MembershipLog = elastic.Membership
	// MembershipChange is one entry of the MembershipLog.
	MembershipChange = elastic.Change
	// ElasticMetrics extends OverloadMetrics with the membership log, the
	// per-task dispatch instants, scale/handoff counts and the
	// machine-hours integral ∫ members dt.
	ElasticMetrics = sim.ElasticMetrics
)

// EffectiveSet returns the first k active machines walking the slot ring
// clockwise from start — the one routing rule shared by the elastic engine
// and the auditor. active[j] reports whether slot j is a member; start = −1
// means unrestricted (take the k lowest active slots). The result is sorted
// ascending.
func EffectiveSet(active []bool, start, k int) ProcSet {
	return elastic.Effective(active, start, k, nil)
}

// SimulateElastic is SimulateGuarded with online membership attached: the
// ring of machine slots grows (with warm-up) and shrinks (draining the
// highest active slot, running head finishing in place, queued tasks handed
// off to surviving members) during the run, scripted and/or driven by the
// autoscaler. Processing sets are remapped at dispatch onto the active
// subring by the deterministic walk of EffectiveSet, so a full-membership
// elastic run routes exactly like a static one. No admitted task is ever
// lost to a drain: handoffs re-enter the normal dispatch path and the audit
// membership invariants re-check every dispatch against the returned
// MembershipLog. A nil ecfg reproduces SimulateGuarded bit for bit; the
// probe additionally receives the scale-up, join, scale-down and handoff
// events.
func SimulateElastic(inst *Instance, router Router, plan *FaultPlan, policy RetryPolicy, cfg *OverloadConfig, ecfg *ElasticConfig, probe Probe) (*Schedule, *ElasticMetrics, error) {
	return sim.RunElastic(inst, router, plan, policy, cfg, ecfg, probe)
}

// RunArena owns every per-run buffer of the simulation engine and reuses
// them across runs: the first run sizes them, every later run of the same
// shape allocates almost nothing. Its RunFaulty / RunGuarded / RunElastic
// methods are the Simulate* family with the arena's buffers substituted for
// fresh ones and are output-identical to them.
//
// The returned Schedule and metrics point into the arena and are valid only
// until its next run — copy anything that must outlive it. An arena is not
// safe for concurrent use; give each goroutine its own (a sync.Pool of
// NewRunArena works well for worker fan-outs).
type RunArena = sim.Arena

// NewRunArena returns an empty arena ready for its first run. Keep it across
// repeated Simulate-shaped calls — trial loops, benchmark repetitions, chaos
// soaks — to amortize the engine's per-run allocations down to a handful.
func NewRunArena() *RunArena {
	return sim.NewArena()
}
