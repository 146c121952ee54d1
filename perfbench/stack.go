package main

import (
	"fmt"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// stackGray is one full-stack run per op: sim.(*Arena).RunResilient on
// m = 15, k = 3 overlapping, Shuffled Zipf(1), 80% load, round-robin
// routing, with every control armed (stackRun) and an obs.Counters probe.
// Op i runs instance kind i mod stackKinds in a fresh arena, so that
// bytes_per_task counts a whole run's footprint instead of the reused
// arena's growth, which depends on the largest instance seen so far.
type stackGray struct {
	seed int64
	n    int

	run     stackRun
	em      *sim.ElasticMetrics
	counter *obs.Counters
}

const (
	stackM    = 15
	stackK    = 3
	stackLoad = 0.8
	// stackKinds is the number of distinct instances a round runs: 20
	// seeded popularity orders, each rotated to all 15 positions. Instance
	// costs vary tenfold, mostly with where the hot servers fall relative to
	// the slow servers and the crash zone; covering every rotation and many
	// orders keeps a seed's figures within a few percent of another's. A
	// round takes about 20 s, so a 30-second run repeats each instance
	// twice.
	stackKinds = 20 * stackM
)

// stackRun is one full-stack input: the instance, the gray-fault plan with
// its zone crash, and every control's config.
type stackRun struct {
	inst   *core.Instance
	plan   *faults.Plan
	policy sim.RetryPolicy
	ocfg   *overload.Config
	ecfg   *elastic.Config
	hcfg   *hedge.Config
	rcfg   *resilience.Config
}

// newStackRun generates the stack_gray input of n tasks from seed, with the
// shuffled popularity order rotated by rotate servers. Servers 0, 3, …, 12
// run 4× slow from t = 10 on; servers 6–8 (one zone) crash for 10 time
// units at 45% of the horizon so that retries and the retry budget do work;
// membership goes 15 → 12 → 15 at 30% and 60% of the horizon.
func newStackRun(seed int64, rotate, n int) (stackRun, error) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := popularity.Weights(popularity.Shuffled, stackM, 1, rng)
	weights := make([]float64, stackM)
	for j, w := range shuffled {
		weights[(j+rotate)%stackM] = w
	}
	inst, err := workload.Generate(workload.Config{
		M: stackM, N: n, Rate: workload.RateForLoad(stackLoad, stackM),
		Weights: weights, Strategy: replicate.Overlapping{K: stackK},
	}, rng)
	if err != nil {
		return stackRun{}, err
	}
	horizon := float64(inst.Tasks[n-1].Release)
	plan := faults.Empty(stackM)
	for j := 0; j < stackM; j += 3 {
		plan.Slow(j, 10, 1e9, 4)
	}
	for j := 6; j <= 8; j++ {
		plan.Down(j, core.Time(0.45*horizon), core.Time(0.45*horizon+10))
	}
	return stackRun{
		inst:   inst,
		plan:   plan,
		policy: sim.RetryPolicy{Backoff: 1, BackoffFactor: 2},
		ocfg:   &overload.Config{Admission: overload.QueueBound{MaxQueue: 20}},
		ecfg: &elastic.Config{Min: stackK, WarmUp: 1, Script: []elastic.Event{
			{At: core.Time(0.3 * horizon), Delta: -3},
			{At: core.Time(0.6 * horizon), Delta: 3},
		}},
		hcfg: &hedge.Config{Delay: 5, CancelRunning: true},
		rcfg: &resilience.Config{
			Jitter: resilience.JitterFull, Seed: seed, RetryBudget: 0.1,
			Breaker: &resilience.BreakerConfig{Window: 20, FailureThreshold: 0.5, Cooldown: 10, SlowFactor: 3},
		},
	}, nil
}

// resilient runs the input through the unified engine with a fresh
// round-robin router and the given probe.
func (r stackRun) resilient(a *sim.Arena, probe obs.Probe) (*core.Schedule, *sim.ElasticMetrics, error) {
	return a.RunResilient(r.inst, &sim.RoundRobinRouter{}, r.plan, r.policy, r.ocfg, r.ecfg, r.hcfg, r.rcfg, probe)
}

func newStackGray(seed int64, n int) *stackGray {
	return &stackGray{seed: seed, n: n}
}

// stackWarmup is the number of ops setup runs, the first popularity order
// at every rotation: instance costs vary tenfold with the rotation, so a
// few warm-up ops would make setup_s depend on the seed.
const stackWarmup = stackM

func (g *stackGray) setup() error {
	for i := 0; i < stackWarmup; i++ {
		if err := g.prepare(i, nil); err != nil {
			return err
		}
		if err := g.op(i, nil); err != nil {
			return err
		}
		if err := g.check(i, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

func (g *stackGray) prepare(i int, tr *tracer) error {
	sp := tr.begin("workload.generate", g.n)
	k := i % stackKinds
	run, err := newStackRun(mix(g.seed, k/stackM), k%stackM, g.n)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	g.run = run
	g.counter = &obs.Counters{}
	return nil
}

func (g *stackGray) op(i int, tr *tracer) error {
	sp := tr.begin("sim.run_resilient", g.n)
	_, em, err := g.run.resilient(sim.NewArena(), g.counter)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	g.em = em
	return nil
}

func (g *stackGray) check(i int, d *digest, _ *tracer) error {
	if err := conservation(g.em); err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	if d != nil {
		em := g.em
		d.floats(em.Flows)
		d.bools(em.Rejected)
		d.bools(em.Shed)
		d.bools(em.Dropped)
		d.bools(em.BudgetDropped)
		for _, v := range stackCounts(em) {
			d.int(v)
		}
	}
	return nil
}

// conservation checks the two ledgers every full-stack run must balance:
// each issued hedge copy resolves exactly once, and each requested retry is
// either issued or dropped by the budget.
func conservation(em *sim.ElasticMetrics) error {
	if em.HedgesIssued != em.HedgeWinsCopy+em.HedgesCancelled+em.HedgesRevoked {
		return fmt.Errorf("hedge ledger broken: issued %d ≠ copy-wins %d + cancelled %d + revoked %d",
			em.HedgesIssued, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked)
	}
	if em.RetriesIssued+em.RetriesDropped != em.RetriesRequested {
		return fmt.Errorf("retry ledger broken: issued %d + dropped %d ≠ requested %d",
			em.RetriesIssued, em.RetriesDropped, em.RetriesRequested)
	}
	return nil
}

// stackCounts lists the simulated work counts of a full-stack run in a
// fixed order (the digest's and the traced report's).
func stackCounts(em *sim.ElasticMetrics) []int {
	return []int{em.RejectedCount(), em.ShedCount(), em.DroppedCount(), em.HedgesIssued,
		em.HedgeWinsPrimary, em.HedgeWinsCopy, em.HedgesCancelled, em.HedgesRevoked,
		em.RetriesRequested, em.RetriesIssued, em.RetriesDropped, em.BreakerOpens,
		em.BreakerCloses, em.BreakerProbes, em.ScaleUps, em.ScaleDowns, em.Handoffs}
}

func (g *stackGray) tasks(int) int { return g.n }
func (g *stackGray) roundOps() int { return stackKinds }
