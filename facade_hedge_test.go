package flowsched_test

import (
	"math/rand"
	"reflect"
	"testing"

	"flowsched"
)

// hedgeCounter counts the facade's hedge event stream.
type hedgeCounter struct {
	hedges, copyWins int
}

func (h *hedgeCounter) OnEvent(ev flowsched.Event) {
	switch ev.Kind {
	case flowsched.EventHedge:
		h.hedges++
	case flowsched.EventHedgeWin:
		if ev.Copy {
			h.copyWins++
		}
	}
}

// TestFacadeHedged exercises the hedged-execution facade end to end: a nil
// config reproduces SimulateElastic bit for bit, and a delay-triggered hedge
// under a gray fault issues copies, wins by copy, and reports the
// duplicate-work cost — with the hedge events visible to the probe.
func TestFacadeHedged(t *testing.T) {
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 4, N: 200, Rate: flowsched.RateForLoad(0.5, 4),
		Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	router := flowsched.RoundRobinRouter()

	// Nil hedge config: byte-identical to SimulateElastic.
	sE, mE, err := flowsched.SimulateElastic(inst, router, nil, flowsched.RetryPolicy{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sH, mH, err := flowsched.SimulateHedged(inst, flowsched.RoundRobinRouter(), nil, flowsched.RetryPolicy{}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sE, sH) || !reflect.DeepEqual(mE.Flows, mH.Flows) {
		t.Fatal("nil hedge config diverges from SimulateElastic")
	}
	if mH.HedgesIssued != 0 || mH.Hedged != nil {
		t.Fatal("nil hedge config produced hedge state")
	}

	// One server turns gray; a delay-triggered hedge with cancel-mid-service
	// routes around it.
	plan := flowsched.EmptyFaultPlan(4).Slow(0, 0, 1e6, 25)
	hcfg := &flowsched.HedgeConfig{Delay: 2, CancelRunning: true}
	probe := &hedgeCounter{}
	_, em, err := flowsched.SimulateHedged(inst, flowsched.RoundRobinRouter(), plan, flowsched.RetryPolicy{}, nil, nil, hcfg, probe)
	if err != nil {
		t.Fatal(err)
	}
	if em.HedgesIssued == 0 || em.HedgeWinsCopy == 0 {
		t.Fatalf("gray server produced no copy wins: issued=%d copyWins=%d",
			em.HedgesIssued, em.HedgeWinsCopy)
	}
	if em.HedgesIssued != em.HedgeWinsCopy+em.HedgesCancelled+em.HedgesRevoked {
		t.Fatalf("hedge resolution broken: %d ≠ %d + %d + %d",
			em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked)
	}
	if probe.hedges != em.HedgesIssued || probe.copyWins != em.HedgeWinsCopy {
		t.Fatalf("probe saw %d/%d, metrics report %d/%d",
			probe.hedges, probe.copyWins, em.HedgesIssued, em.HedgeWinsCopy)
	}
	if r := em.DuplicateRatio(); r < 0 || r >= 1 {
		t.Fatalf("DuplicateRatio = %v", r)
	}

	// A triggerless config is rejected up front.
	if _, _, err := flowsched.SimulateHedged(inst, flowsched.RoundRobinRouter(), nil, flowsched.RetryPolicy{}, nil, nil, &flowsched.HedgeConfig{}, nil); err == nil {
		t.Fatal("triggerless hedge config accepted")
	}
}
