package main

import (
	"fmt"

	"flowsched/internal/audit"
	"flowsched/internal/chaos"
	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/offline"
	"flowsched/internal/sim"
)

// chaosAudited runs seeded chaos trials with the auditor on, exactly as
// cmd/chaos samples them: one op is chaos.SampleParams → Params.Build →
// chaos.Check for trial i mod chaosTrials of the run seed. Failing trials
// are recorded as failed ops and never shrunk, re-seeded or skipped.
type chaosAudited struct {
	cfg     chaos.Config
	routers map[string]chaos.RouterSpec

	p          chaos.Params
	inst       *core.Instance
	plan       *faults.Plan
	violations []audit.Violation
}

// chaosWarmup is the number of trials setup runs to warm the arena pool.
// Trial costs are heavy-tailed, so fewer trials would make setup_s depend
// on which trials the seed draws.
const chaosWarmup = 200

// chaosTrials is the number of distinct trials a round runs.
const chaosTrials = 500

func newChaosAudited(seed int64, maxM, maxN int) *chaosAudited {
	c := &chaosAudited{
		cfg:     chaos.Config{Seed: seed, MaxM: maxM, MaxN: maxN, Routers: chaos.DefaultRouters()},
		routers: make(map[string]chaos.RouterSpec),
	}
	for _, r := range c.cfg.Routers {
		c.routers[r.Name] = r
	}
	return c
}

func (c *chaosAudited) setup() error {
	for i := 0; i < chaosWarmup; i++ {
		if err := c.op(i, nil); err != nil {
			return err
		}
	}
	return nil
}

func (c *chaosAudited) prepare(int, *tracer) error { return nil }

func (c *chaosAudited) op(i int, tr *tracer) error {
	i %= chaosTrials
	sp := tr.begin("chaos.sample", 0)
	c.p = chaos.SampleParams(c.cfg, i)
	tr.end(sp)
	sp = tr.begin("chaos.build", c.p.N)
	inst, plan, err := c.p.Build()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("trial %d: %w", i, err)
	}
	spec, ok := c.routers[c.p.Router]
	if !ok {
		return fmt.Errorf("trial %d: unknown router %q", i, c.p.Router)
	}
	sp = tr.begin("chaos.check", c.p.N)
	c.violations = chaos.Check(inst, plan, spec, c.p)
	tr.end(sp)
	c.inst, c.plan = inst, plan
	return nil
}

// check fails the op on any violation. On traced runs it also times the
// auditor and the offline lower bound on the trial's sim.RunFaulty schedule.
func (c *chaosAudited) check(i int, d *digest, tr *tracer) error {
	i %= chaosTrials
	if d != nil {
		d.int(i)
		d.int(int(c.p.Seed))
		d.int(len(c.violations))
		for _, v := range c.violations {
			d.str(v.String())
		}
	}
	if tr != nil {
		if err := c.auditFaulty(tr); err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
	}
	if len(c.violations) > 0 {
		return fmt.Errorf("trial %d (router %s, faults %s, m=%d, n=%d): %d violation(s); first: %s",
			i, c.p.Router, c.p.FaultMode, c.p.M, c.p.N, len(c.violations), c.violations[0])
	}
	return nil
}

// auditFaulty re-runs the trial's instance, router, plan and policy through
// sim.RunFaulty and times audit.Audit and offline.LowerBound on it.
func (c *chaosAudited) auditFaulty(tr *tracer) error {
	n := c.inst.N()
	router := c.routers[c.p.Router].New(c.p.RouterSeed)
	sp := tr.begin("sim.run_faulty", n)
	s, fm, err := sim.RunFaulty(c.inst, router, c.plan, c.p.Policy)
	tr.end(sp)
	if err != nil {
		return err
	}
	comps := make([]core.Time, n)
	for i, task := range c.inst.Tasks {
		comps[i] = task.Release + fm.Flows[i]
	}
	sp = tr.begin("audit.audit", n)
	audit.Audit(c.inst, s, audit.Options{Plan: c.plan, Completions: comps, Dropped: fm.Dropped})
	tr.end(sp)
	sp = tr.begin("offline.lowerbound", n)
	offline.LowerBound(c.inst)
	tr.end(sp)
	return nil
}

func (c *chaosAudited) tasks(int) int { return c.p.N }
func (c *chaosAudited) roundOps() int { return chaosTrials }
