package flowsched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flowsched"
)

// resilienceCounter counts the facade's event stream by kind.
type resilienceCounter map[flowsched.EventKind]int

func (r resilienceCounter) OnEvent(ev flowsched.Event) { r[ev.Kind]++ }

// TestFacadeResilient exercises the resilience facade end to end: a nil
// config reproduces SimulateHedged bit for bit, and a flapping outage under
// a retry budget plus breakers trips the breaker, drops over-budget retries
// and reports the ledger — with the resilience events visible to the probe.
func TestFacadeResilient(t *testing.T) {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 4, N: 300, Rate: flowsched.RateForLoad(0.6, 4),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	plan := flowsched.EmptyFaultPlan(4)
	for i := 0; i < 8; i++ {
		from := flowsched.Time(10 * i)
		plan.Down(0, from, from+6)
	}
	policy := flowsched.RetryPolicy{Backoff: 1, BackoffFactor: 2}

	// Nil resilience config: byte-identical to SimulateHedged.
	sH, mH, err := flowsched.SimulateHedged(inst, flowsched.RoundRobinRouter(), plan, policy, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sR, mR, err := flowsched.SimulateResilient(inst, flowsched.RoundRobinRouter(), plan, policy, nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sH, sR) || !reflect.DeepEqual(mH.Flows, mR.Flows) {
		t.Fatal("nil resilience config diverges from SimulateHedged")
	}
	if mR.BreakerOpens != 0 || mR.BreakerSpans != nil || mR.BudgetDropped != nil {
		t.Fatal("nil resilience config produced resilience state")
	}

	// The protected run: jittered backoff, a tight retry budget and
	// per-server breakers against the flapping server.
	rcfg := &flowsched.ResilienceConfig{
		Jitter:      flowsched.JitterFull,
		Seed:        7,
		RetryBudget: 0.05,
		BudgetBurst: 2,
		Breaker: &flowsched.BreakerConfig{
			Window: 2, FailureThreshold: 0.5, Cooldown: 8, HalfOpenProbes: 1,
		},
	}
	probe := resilienceCounter{}
	_, em, err := flowsched.SimulateResilient(inst, flowsched.RoundRobinRouter(), plan, policy, nil, nil, nil, rcfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	if em.BreakerOpens == 0 {
		t.Fatal("flapping server never tripped the breaker")
	}
	if em.RetriesIssued+em.RetriesDropped != em.RetriesRequested {
		t.Fatalf("retry ledger broken: %d issued + %d dropped ≠ %d requested",
			em.RetriesIssued, em.RetriesDropped, em.RetriesRequested)
	}
	if len(em.BreakerSpans) != em.BreakerOpens {
		t.Fatalf("%d spans for %d opens", len(em.BreakerSpans), em.BreakerOpens)
	}
	opens, probes := probe[flowsched.EventBreakerOpen], probe[flowsched.EventBreakerProbe]
	closes, budgetDrops := probe[flowsched.EventBreakerClose], probe[flowsched.EventRetryBudgetDrop]
	if opens != em.BreakerOpens || probes != em.BreakerProbes ||
		closes != em.BreakerCloses || budgetDrops != em.RetriesDropped {
		t.Fatalf("probe saw %d/%d/%d/%d, metrics report %d/%d/%d/%d",
			opens, probes, closes, budgetDrops,
			em.BreakerOpens, em.BreakerProbes, em.BreakerCloses, em.RetriesDropped)
	}

	// A bad config is rejected up front.
	bad := &flowsched.ResilienceConfig{Jitter: "sometimes"}
	if _, _, err := flowsched.SimulateResilient(inst, flowsched.RoundRobinRouter(), nil, policy, nil, nil, nil, bad, nil); err == nil {
		t.Fatal("unknown jitter mode accepted")
	}
}
