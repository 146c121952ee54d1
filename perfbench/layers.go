package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"flowsched/internal/obs"
	"flowsched/internal/sim"
)

// tracedRun is the per-layer run. The named workload runs traced for a
// quarter of the budget, between two untraced runs of an eighth each over
// the same op kinds; comparing them gives the tracing overhead without a
// bias from run order. The other workloads, chaos_audited among them, run
// traced for a quarter of the budget each, so every layer metric is
// reported whichever workload is named. The stack_gray probes (engine ladder, 2n scaling,
// counters probe cost) then run on the seed's first stack_gray instance.
func tracedRun(name string, seed int64, seconds float64, sz sizes, spansDir string, out io.Writer) (result, error) {
	clock := clockNs()
	res := result{Correct: true, Metrics: make(map[string]metric)}
	traces := make(map[string]*tracer)
	for _, wn := range workloadNames() {
		w := workloads[wn](seed, sz)
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", wn, err)
		}
		budget := seconds / 4
		var before loopResult
		if wn == name {
			before = measure(w, budget/2, nil)
		}
		tr := newTracer()
		traced := measure(w, budget, tr)
		traces[wn] = tr
		report(out, wn+" (traced)", seed, traced)
		res.Attempted += traced.ops
		if wn == "chaos_audited" {
			// Here the chaos trials only time the chaos, audit and offline
			// layers. Their violations are listed above and reported as a
			// layer metric, not as failed ops: the engine fails a few
			// trials in a thousand, and a traced run must not fail ops of
			// its own.
			res.Metrics["chaos.violating_trial_ratio"] = metric{float64(traced.failed) / float64(traced.ops), "ratio"}
		} else {
			res.Failed += traced.failed
			res.Correct = res.Correct && correct(wn, traced)
		}
		if wn == name {
			after := measure(w, budget/2, nil)
			plain := make([]float64, len(after.kindOp))
			for k := range plain {
				plain[k] = median(append(before.kindOp[k], after.kindOp[k]...))
			}
			overhead := median(traced.opMs()) / median(plain)
			fmt.Fprintf(out, "tracing overhead on %s: op_ms_p50 traced %.4f vs untraced %.4f (×%.3f)\n",
				name, median(traced.opMs()), median(plain), overhead)
			res.Metrics["trace.overhead_ratio"] = metric{overhead, "ratio"}
		}
	}
	fmt.Fprintf(out, "clock read %.1f ns (subtracted per timed router pick)\n", clock)
	for _, wn := range workloadNames() {
		printSelfTimes(out, wn, traces[wn].totals())
	}
	layerMetrics(res.Metrics, traces, clock)
	if err := stackProbes(res.Metrics, seed, sz.stackN, out); err != nil {
		return result{}, err
	}
	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, traces); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return res, nil
}

func printSelfTimes(out io.Writer, wn string, tot map[string]*layerTotals) {
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s self time by layer:\n", wn)
	for _, n := range names {
		lt := tot[n]
		fmt.Fprintf(out, "  %-20s spans %7d  total %10.2f ms  self %10.2f ms  tasks %9d  calls %9d\n",
			n, lt.spans, float64(lt.durNs)/1e6, float64(lt.selfNs)/1e6, lt.tasks, lt.count)
	}
}

// ratio is a/b, or 0 when b is 0 (JSON cannot carry NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the span-based per-layer metrics. Each timed router
// pick adds about one clock read inside its aggregate span and one outside
// it, within sim.run; both are subtracted using the calibrated clock cost.
func layerMetrics(m map[string]metric, traces map[string]*tracer, clock float64) {
	get := func(wn, span string) *layerTotals {
		if lt := traces[wn].totals()[span]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	perTask := func(ns int64, lt *layerTotals) float64 { return ratio(float64(ns), float64(lt.tasks)) }

	gen := get("fig11_paper", "workload.generate")
	run := get("fig11_paper", "sim.run")
	pick := get("fig11_paper", "router.pick")
	eft := get("fig11_paper", "sched.eft")
	sum := get("fig11_paper", "stats.summarize")
	picks := float64(pick.count)
	m["workload.gen_ns_per_task"] = metric{perTask(gen.durNs, gen), "ns/task"}
	m["sim.run_self_ns_per_task"] = metric{ratio(float64(run.selfNs)-picks*clock, float64(run.tasks)), "ns/task"}
	m["router.pick_ns"] = metric{ratio(float64(pick.durNs), picks) - clock, "ns"}
	m["router.picks_per_task"] = metric{ratio(picks, float64(run.tasks)), "ratio"}
	m["sched.eft_ns_per_task"] = metric{perTask(eft.durNs, eft), "ns/task"}
	m["sim.run_over_sched_eft"] = metric{ratio(float64(run.durNs)-2*picks*clock, float64(eft.durNs)), "ratio"}
	m["stats.summarize_ns_per_task"] = metric{perTask(sum.durNs, sum), "ns/task"}

	for _, l := range []struct{ metric, span string }{
		{"chaos.build_ns_per_task", "chaos.build"},
		{"chaos.check_ns_per_task", "chaos.check"},
		{"audit.ns_per_task", "audit.audit"},
		{"offline.lowerbound_ns_per_task", "offline.lowerbound"},
	} {
		lt := get("chaos_audited", l.span)
		m[l.metric] = metric{perTask(lt.durNs, lt), "ns/task"}
	}
}

// probeReps is how many times each stack probe runs; the median is kept.
const probeReps = 3

// timeRuns returns the median over reps calls of f of its CPU nanoseconds,
// each call scaled by a reference kernel run after it as measure scales
// ops.
func timeRuns(reps int, f func() error) (float64, error) {
	ns := make([]float64, reps)
	for r := range ns {
		t0 := cpuSeconds()
		if err := f(); err != nil {
			return 0, err
		}
		ns[r] = (cpuSeconds() - t0) * 1e9 * refNominal / refKernel()
	}
	return median(ns), nil
}

// stackProbes runs the unified-engine ladder on the seed's first stack_gray
// instance — paper engine, then RunResilient with no control, then one
// control at a time, then all — plus the 2n scaling run, the counters-probe
// cost and the simulated work counts of the full run.
func stackProbes(m map[string]metric, seed int64, n int, out io.Writer) error {
	r, err := newStackRun(mix(seed, 0), 0, n)
	if err != nil {
		return err
	}
	a := sim.NewArena()
	resilient := func(s stackRun, probe obs.Probe) func() error {
		return func() error {
			_, _, err := s.resilient(a, probe)
			return err
		}
	}
	zero := stackRun{inst: r.inst}
	faultsOnly, overloadOnly, elasticOnly, hedgeOnly, resilienceOnly := zero, zero, zero, zero, zero
	faultsOnly.plan, faultsOnly.policy = r.plan, r.policy
	overloadOnly.ocfg = r.ocfg
	elasticOnly.ecfg = r.ecfg
	hedgeOnly.hcfg = r.hcfg
	resilienceOnly.rcfg = r.rcfg
	rungs := []struct {
		name string
		f    func() error
	}{
		{"ladder.sim_run", func() error { _, _, err := sim.Run(r.inst, &sim.RoundRobinRouter{}); return err }},
		{"ladder.zero", resilient(zero, nil)},
		{"ladder.faults", resilient(faultsOnly, nil)},
		{"ladder.overload", resilient(overloadOnly, nil)},
		{"ladder.elastic", resilient(elasticOnly, nil)},
		{"ladder.hedge", resilient(hedgeOnly, nil)},
		{"ladder.resilience", resilient(resilienceOnly, nil)},
		{"ladder.full", resilient(r, nil)},
	}
	var fullNs float64
	for _, rung := range rungs {
		ns, err := timeRuns(probeReps, rung.f)
		if err != nil {
			return fmt.Errorf("%s: %w", rung.name, err)
		}
		m[rung.name] = metric{ns / float64(n), "ns/task"}
		fmt.Fprintf(out, "%-18s %10.1f ns/task\n", rung.name, ns/float64(n))
		fullNs = ns
	}

	r2, err := newStackRun(mix(seed, 0), 0, 2*n)
	if err != nil {
		return err
	}
	ns2, err := timeRuns(probeReps, resilient(r2, nil))
	if err != nil {
		return fmt.Errorf("2n run: %w", err)
	}
	m["sim.scale_ratio_2x"] = metric{ns2 / fullNs, "ratio"}
	fmt.Fprintf(out, "full stack at n=%d: %.1f ms, at 2n: %.1f ms\n", n, fullNs/1e6, ns2/1e6)

	// The probe costs far less than the host's run-to-run noise, so compare
	// the fastest of several alternating runs with and without it.
	on, off := math.Inf(1), math.Inf(1)
	for p := 0; p < 7; p++ {
		ns, err := timeRuns(1, resilient(r, &obs.Counters{}))
		if err != nil {
			return err
		}
		on = math.Min(on, ns)
		if ns, err = timeRuns(1, resilient(r, nil)); err != nil {
			return err
		}
		off = math.Min(off, ns)
	}
	m["obs.counters_ns_per_task"] = metric{(on - off) / float64(n), "ns/task"}

	_, em, err := r.resilient(a, nil)
	if err != nil {
		return err
	}
	fn := float64(n)
	m["hedge.issued_per_task"] = metric{float64(em.HedgesIssued) / fn, "ratio"}
	m["hedge.copy_win_ratio"] = metric{ratio(float64(em.HedgeWinsCopy), float64(em.HedgesIssued)), "ratio"}
	m["hedge.duplicate_work_ratio"] = metric{em.DuplicateRatio(), "ratio"}
	m["resilience.retry_issue_ratio"] = metric{ratio(float64(em.RetriesIssued), float64(em.RetriesRequested)), "ratio"}
	m["resilience.breaker_opens"] = metric{float64(em.BreakerOpens), "count"}
	m["overload.admit_ratio"] = metric{1 - float64(em.RejectedCount())/fn, "ratio"}
	m["elastic.handoffs"] = metric{float64(em.Handoffs), "count"}
	fmt.Fprintf(out, "stack_gray work counts %v\n", stackCounts(em))
	return nil
}
