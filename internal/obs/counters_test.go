package obs

import (
	"strings"
	"testing"
)

// TestCountersPromExposition is the promlint-style contract of WriteProm:
// every metric family carries a HELP line, a TYPE line and a sample, in that
// order; counter families use the _total suffix; no sample appears without
// its family metadata. A rename that breaks scrape continuity (e.g. dropping
// a _total suffix) fails here instead of in a dashboard.
func TestCountersPromExposition(t *testing.T) {
	c := Counters{
		n: [NumKinds]int64{
			Arrival: 1, Dispatch: 2, Complete: 3, Retry: 4, Drop: 5, Failover: 6,
			Reject: 8, Shed: 9, Eject: 10, Readmit: 11, ScaleUp: 13, Join: 14,
			ScaleDown: 15, Handoff: 16, Hedge: 18, HedgeWin: 19, HedgeCancel: 21,
			BreakerOpen: 22, BreakerClose: 23, BreakerProbe: 24, RetryBudgetDrop: 25,
		},
		Lost: 7, Brownouts: 12, WarmUpTime: 17.5, HedgeCopyWins: 20,
	}
	var b strings.Builder
	if err := c.WriteProm(&b); err != nil {
		t.Fatal(err)
	}

	help := map[string]bool{}
	typ := map[string]string{}
	sample := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if len(fields) < 4 {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			help[fields[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := fields[2], fields[3]
			typ[name] = kind
			if !help[name] {
				t.Errorf("line %d: TYPE for %s before its HELP", ln+1, name)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			name := fields[0]
			sample[name] = true
			if typ[name] == "" {
				t.Errorf("line %d: sample for %s without a TYPE", ln+1, name)
			}
		}
	}

	for name, kind := range typ {
		if !strings.HasPrefix(name, "flowsched_") {
			t.Errorf("family %s outside the flowsched_ namespace", name)
		}
		if kind != "counter" {
			t.Errorf("family %s has type %s, want counter", name, kind)
		}
		if !strings.HasSuffix(name, "_total") {
			t.Errorf("counter family %s lacks the _total suffix", name)
		}
		if !sample[name] {
			t.Errorf("family %s declared but never sampled", name)
		}
	}

	// Every counter must surface, including the seconds-valued warm-up
	// total (renamed to carry _total like the rest) and the derived values:
	// the brownout family counts rising edges, not brownout events.
	for _, want := range []string{
		"flowsched_arrivals_total 1", "flowsched_handoffs_total 16",
		"flowsched_lost_tasks_total 7", "flowsched_brownouts_total 12",
		"flowsched_hedge_copy_wins_total 20",
		"flowsched_hedges_total 18", "flowsched_hedge_cancels_total 21",
		"flowsched_breaker_opens_total 22", "flowsched_breaker_closes_total 23",
		"flowsched_breaker_probes_total 24", "flowsched_retry_budget_drops_total 25",
		"flowsched_warm_up_time_total 17.5",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, b.String())
		}
	}
	if len(typ) != 25 {
		t.Errorf("%d families exposed, want 25", len(typ))
	}
}
