package obs

import (
	"strings"
	"testing"
)

// recProbe records the names of the kinds it sees.
type recProbe struct{ events []string }

func (p *recProbe) OnEvent(ev Event) { p.events = append(p.events, ev.Kind.String()) }

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	single := &recProbe{}
	if Multi(nil, single) != Probe(single) {
		t.Error("Multi with one live probe should return it unwrapped")
	}
	a, b := &recProbe{}, &recProbe{}
	m := Multi(a, nil, b)
	m.OnEvent(Event{Kind: Arrival, T: 0, Task: 0})
	m.OnEvent(Event{Kind: Dispatch, T: 0, Task: 0, Server: 0, Start: 0, End: 1})
	m.OnEvent(Event{Kind: Complete, T: 1, Task: 0, Server: 0, Release: 0, Proc: 1})
	m.OnEvent(Event{Kind: Drop, T: 1, Task: 1, Release: 0})
	m.OnEvent(Event{Kind: Retry, T: 1, Task: 2, Attempt: 1})
	m.OnEvent(Event{Kind: Failover, T: 1, Server: 0, Lost: 3})
	m.OnEvent(Event{Kind: Done, T: 1})
	want := []string{"arrival", "dispatch", "complete", "drop", "retry", "failover", "done"}
	for _, p := range []*recProbe{a, b} {
		if !eqStrings(p.events, want) {
			t.Errorf("fan-out events = %v", p.events)
		}
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	c.OnEvent(Event{Kind: Arrival, T: 0, Task: 0})
	c.OnEvent(Event{Kind: Arrival, T: 1, Task: 1})
	c.OnEvent(Event{Kind: Dispatch, T: 0, Task: 0, Server: 0, Start: 0, End: 1})
	c.OnEvent(Event{Kind: Dispatch, T: 1, Task: 1, Server: 1, Start: 1, End: 2})
	c.OnEvent(Event{Kind: Dispatch, T: 3, Task: 1, Server: 0, Start: 3, End: 4}) // failover re-dispatch
	c.OnEvent(Event{Kind: Complete, T: 1, Task: 0, Server: 0, Release: 0, Proc: 1})
	c.OnEvent(Event{Kind: Failover, T: 2, Server: 1, Lost: 1})
	c.OnEvent(Event{Kind: Retry, T: 2, Task: 1, Attempt: 1})
	c.OnEvent(Event{Kind: Complete, T: 4, Task: 1, Server: 0, Release: 1, Proc: 1})
	if c.Count(Arrival) != 2 || c.Count(Dispatch) != 3 || c.Count(Complete) != 2 ||
		c.Count(Retry) != 1 || c.Count(Failover) != 1 || c.Lost != 1 || c.Count(Drop) != 0 {
		t.Fatalf("counters = %+v", c)
	}
	var b strings.Builder
	if err := c.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE flowsched_arrivals_total counter",
		"flowsched_arrivals_total 2",
		"flowsched_dispatches_total 3",
		"flowsched_completions_total 2",
		"flowsched_retries_total 1",
		"flowsched_failovers_total 1",
		"flowsched_lost_tasks_total 1",
		"flowsched_drops_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
