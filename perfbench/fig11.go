package main

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/workload"
)

// fig11 is the Figure 11 protocol of Section 7.4 on the paper engine alone:
// m = 15, k = 3, Zipf(s = 1) popularity in the Uniform, Shuffled and
// Worst-case orders, overlapping and disjoint replication, EFT-Min and
// EFT-Max, loads 0.1–1.0, nil probe. One op is one sim.Run of n unit tasks
// plus the flow summary the figure reads Fmax from; op indices walk
// repetition → case → load → strategy → tie, so one repetition is 120 ops
// and every op's instance is generated from (seed, case, load). Every
// repetition runs the same 60 instances, so each op kind repeats the same
// work.
type fig11 struct {
	seed int64
	n    int
	// newRouter builds the router of one tie-break; tests replace it.
	newRouter func(sched.TieBreak) sim.Router

	insts   [2]*core.Instance // the current cell's instances, by strategy
	s       *core.Schedule
	metrics *sim.Metrics
	summary stats.Summary
}

const (
	fig11M         = 15
	fig11K         = 3
	fig11OpsPerRep = 3 * 10 * 2 * 2 // cases × loads × strategies × ties
)

var (
	fig11Cases      = []popularity.Case{popularity.Uniform, popularity.Shuffled, popularity.Worst}
	fig11Loads      = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	fig11Strategies = []replicate.Strategy{replicate.Overlapping{K: fig11K}, replicate.Disjoint{K: fig11K}}
	fig11Ties       = []sched.TieBreak{sched.MinTie{}, sched.MaxTie{}}
)

func newFig11(seed int64, n int) *fig11 {
	return &fig11{seed: seed, n: n, newRouter: func(t sched.TieBreak) sim.Router { return sim.EFTRouter{Tie: t} }}
}

func fig11Coords(i int) (rep, ci, li, si, ti int) {
	rep, r := i/fig11OpsPerRep, i%fig11OpsPerRep
	cell := r / 4
	return rep, cell / len(fig11Loads), cell % len(fig11Loads), (r / 2) % 2, r % 2
}

// setup generates the first cell and runs one simulation and one oracle
// run per strategy and tie.
func (f *fig11) setup() error {
	if err := f.prepare(0, nil); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if err := f.op(i, nil); err != nil {
			return err
		}
		if err := f.check(i, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// prepare generates both strategies' instances at the first op of a cell.
// They share the arrival stream and the sampled primaries (the paired
// comparison of the paper's protocol).
func (f *fig11) prepare(i int, tr *tracer) error {
	if i%4 != 0 {
		return nil
	}
	_, ci, li, _, _ := fig11Coords(i)
	weights := popularity.Weights(fig11Cases[ci], fig11M, 1, rand.New(rand.NewSource(mix(f.seed, 1, ci, li))))
	arrivals := mix(f.seed, 2, ci, li)
	for si, strat := range fig11Strategies {
		sp := tr.begin("workload.generate", f.n)
		inst, err := workload.Generate(workload.Config{
			M: fig11M, N: f.n, Rate: workload.RateForLoad(fig11Loads[li], fig11M),
			Weights: weights, Strategy: strat,
		}, rand.New(rand.NewSource(arrivals)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("op %d: generate: %w", i, err)
		}
		f.insts[si] = inst
	}
	return nil
}

func (f *fig11) op(i int, tr *tracer) error {
	_, _, _, si, ti := fig11Coords(i)
	router := f.newRouter(fig11Ties[ti])
	var timed *timingRouter
	if tr != nil {
		timed = &timingRouter{Router: router, t: tr}
		router = timed
	}
	sp := tr.begin("sim.run", f.n)
	s, m, err := sim.Run(f.insts[si], router)
	if timed != nil {
		tr.aggregate("router.pick", timed.first, timed.dur, timed.picks)
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	sp = tr.begin("stats.summarize", f.n)
	f.summary = stats.Summarize(m.Flows)
	tr.end(sp)
	f.s, f.metrics = s, m
	return nil
}

// check holds Proposition 1: the simulated Fmax equals the offline EFT
// dispatcher's on the same instance and tie-break, and the schedule is
// feasible.
func (f *fig11) check(i int, d *digest, tr *tracer) error {
	rep, ci, li, si, ti := fig11Coords(i)
	inst := f.insts[si]
	sp := tr.begin("sched.eft", f.n)
	oracle := sched.RunOnline(sched.NewEFT(fig11Ties[ti]), inst)
	tr.end(sp)
	sp = tr.begin("core.validate", f.n)
	err := f.s.Validate()
	tr.end(sp)
	where := fmt.Sprintf("op %d (rep %d, %s, load %.1f, %s, EFT-%s)", i, rep, fig11Cases[ci],
		fig11Loads[li], fig11Strategies[si].Name(), fig11Ties[ti].Name())
	if err != nil {
		return fmt.Errorf("%s: invalid schedule: %v", where, err)
	}
	if got, want := f.metrics.MaxFlow(), oracle.MaxFlow(); got != want {
		return fmt.Errorf("%s: Proposition 1 broken: sim Fmax %v, EFT Fmax %v", where, got, want)
	}
	if f.summary.Max != f.metrics.MaxFlow() || f.summary.N != inst.N() {
		return fmt.Errorf("%s: flow summary disagrees with the run (max %v, n %d)", where, f.summary.Max, f.summary.N)
	}
	if d != nil {
		d.floats(f.metrics.Flows)
		d.float(f.summary.Mean)
	}
	return nil
}

func (f *fig11) tasks(int) int { return f.n }
func (f *fig11) roundOps() int { return fig11OpsPerRep }

// mix derives an independent seed from the run seed and coordinates
// (SplitMix64 finalizer), so inputs do not depend on which ops ran before.
func mix(seed int64, coords ...int) int64 {
	z := uint64(seed)
	for _, c := range coords {
		z += uint64(c+1) * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}
