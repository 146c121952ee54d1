package obs

import "testing"

// extKinds are the names of the kinds beyond the paper engine's and the
// fault stream's (reject through retry-budget-drop).
func extKinds() []string {
	var names []string
	for k := Reject; k < NumKinds; k++ {
		names = append(names, k.String())
	}
	return names
}

// fireExtensions sends one event of every extension kind through p.
func fireExtensions(p Probe) {
	for k := Reject; k < NumKinds; k++ {
		p.OnEvent(Event{Kind: k, T: float64(k)})
	}
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiSingleForwardsExtensions pins the kept[0] fast path: Multi with
// one live probe returns it unwrapped, and it sees every extension kind.
func TestMultiSingleForwardsExtensions(t *testing.T) {
	p := &recProbe{}
	m := Multi(nil, p, nil)
	if m != Probe(p) {
		t.Fatal("single live probe not returned unwrapped")
	}
	fireExtensions(m)
	if want := extKinds(); !eqStrings(p.events, want) {
		t.Fatalf("events = %v, want %v", p.events, want)
	}
}

// TestMultiNested pins Multi(Multi(...), ...): base and extension kinds
// reach every leaf through the inner fan-out.
func TestMultiNested(t *testing.T) {
	a, b, c := &recProbe{}, &recProbe{}, &recProbe{}
	m := Multi(Multi(a, b), c)
	m.OnEvent(Event{Kind: Done, T: 1})
	fireExtensions(m)
	want := append([]string{"done"}, extKinds()...)
	for i, p := range []*recProbe{a, b, c} {
		if !eqStrings(p.events, want) {
			t.Fatalf("leaf %d events = %v, want %v", i, p.events, want)
		}
	}
}

// TestMultiOnDoneOrdering pins the fan-out order: members observe the done
// event in registration order, so a sink flushed by it sees upstream
// aggregates final.
func TestMultiOnDoneOrdering(t *testing.T) {
	var order []int
	mk := func(id int) Probe {
		return funcProbe(func(ev Event) {
			if ev.Kind == Done {
				order = append(order, id)
			}
		})
	}
	m := Multi(mk(0), nil, mk(1), mk(2))
	m.OnEvent(Event{Kind: Done, T: 1})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("done order = %v", order)
	}
}

type funcProbe func(Event)

func (f funcProbe) OnEvent(ev Event) { f(ev) }
