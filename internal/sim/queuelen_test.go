package sim

import (
	"math/rand"
	"testing"

	"flowsched/internal/core"
)

// queueLenOracle wraps a router and, at every Pick, checks State.QueueLen
// against a brute-force count over the partial schedule: for each server j,
// the number of earlier tasks dispatched to j whose end lies after Now.
// The end of the previous task is read from State.Completion at the next
// Pick, the only write to it in between being that task's dispatch.
type queueLenOracle struct {
	t       *testing.T
	inner   Router
	machine []int
	end     []core.Time
}

func (o *queueLenOracle) Name() string { return o.inner.Name() }

func (o *queueLenOracle) Reset() {
	if r, ok := o.inner.(Resettable); ok {
		r.Reset()
	}
	o.machine, o.end = o.machine[:0], o.end[:0]
}

func (o *queueLenOracle) Pick(st *State, t core.Task) int {
	if k := len(o.machine) - 1; k >= 0 {
		o.end[k] = st.Completion[o.machine[k]]
	}
	for j := 0; j < st.M; j++ {
		want := 0
		for k, mk := range o.machine {
			if mk == j && o.end[k] > st.Now {
				want++
			}
		}
		if st.QueueLen[j] != want {
			o.t.Fatalf("%s: task %d at t=%v: QueueLen[%d] = %d, brute force counts %d",
				o.inner.Name(), len(o.machine), st.Now, j, st.QueueLen[j], want)
		}
	}
	j := o.inner.Pick(st, t)
	o.machine = append(o.machine, j)
	o.end = append(o.end, 0)
	return j
}

// checkQueueLen runs inst under the oracle-wrapped router and confirms that
// the oracle saw the schedule Run returned (the last task's end is never
// read back, so only its machine is compared).
func checkQueueLen(t *testing.T, inst *core.Instance, router Router) {
	t.Helper()
	o := &queueLenOracle{t: t, inner: router}
	s, _, err := Run(inst, o)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.N()
	if len(o.machine) != n {
		t.Fatalf("%s: oracle saw %d picks, want %d", router.Name(), len(o.machine), n)
	}
	for k, mk := range o.machine {
		if mk != s.Machine[k] || (k < n-1 && o.end[k] != s.Start[k]+inst.Tasks[k].Proc) {
			t.Fatalf("%s: task %d: oracle saw M%d ending at %v, schedule has M%d starting at %v",
				router.Name(), k, mk+1, o.end[k], s.Machine[k]+1, s.Start[k])
		}
	}
}

// TestRunQueueLenMatchesSchedule: the queue lengths every router sees are
// exact, on tie-dense instances where completions land on arrival
// instants (and 1e-300 tasks end at their start) and on the overloaded
// golden instance.
func TestRunQueueLenMatchesSchedule(t *testing.T) {
	insts := []*core.Instance{
		tieDenseInstance(1, 60, rand.New(rand.NewSource(1))),
		tieDenseInstance(3, 200, rand.New(rand.NewSource(2))),
		tieDenseInstance(6, 400, rand.New(rand.NewSource(12))),
		overloadedInstance(15, 700, 1.05, rand.New(rand.NewSource(11))),
	}
	for _, inst := range insts {
		for _, rt := range goldenRunRouters {
			checkQueueLen(t, inst, rt.make())
		}
	}
}

// FuzzRunQueueLen is TestRunQueueLenMatchesSchedule over fuzz-shaped
// tie-dense instances and any of the golden routers.
func FuzzRunQueueLen(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(40), uint8(3))
	f.Add(int64(2), uint8(4), uint16(150), uint8(4))
	f.Add(int64(3), uint8(15), uint16(300), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, m8 uint8, n16 uint16, r8 uint8) {
		m := 1 + int(m8)%16
		n := 1 + int(n16)%400
		inst := tieDenseInstance(m, n, rand.New(rand.NewSource(seed)))
		checkQueueLen(t, inst, goldenRunRouters[int(r8)%len(goldenRunRouters)].make())
	})
}
