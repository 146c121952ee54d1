package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
)

// tiny keeps every smoke run well under a second per workload.
var tiny = sizes{fig11N: 200, chaosMaxM: 6, chaosMaxN: 40, stackN: 300}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics fails unless got holds exactly the named metrics with their
// declared units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// BENCHMARK.json names every workload except chaos_audited, whose ops fail
// at a known rate on the current engine; its layers are measured by every
// traced run instead.
func TestSpecNamesWorkloads(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "fig11_paper,stack_gray"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, want %s", got, want)
	}
}

func TestEndToEndSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := endToEnd(name, 1, 0.05, tiny, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("result %+v\n%s", res, out.String())
			}
			checkMetrics(t, res.Metrics, spec.EndToEnd)
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric %s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	spec := readSpec(t)
	var out bytes.Buffer
	dir := t.TempDir()
	res, err := tracedRun("stack_gray", 2, 0.2, tiny, dir, &out)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res.Metrics, spec.PerLayer)
	if !strings.Contains(out.String(), "fig11_paper self time by layer") {
		t.Errorf("self-time table missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(dir + "/stack_gray-seed2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"name":"router.pick"`)) {
		t.Errorf("span file lacks router.pick spans")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig11_paper", "--trace", "2"},
		{"--workload", "fig11_paper", "--seconds", "0"},
		{"--workload", "fig11_paper", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed a result: %s", args, out.String())
		}
	}
}

// The digest covers the first round, so it repeats for a seed whatever the
// run length and changes with the seed; every run ends on a whole round.
func TestDigestRepeats(t *testing.T) {
	for _, name := range workloadNames() {
		digestOf := func(seed int64, budget float64) string {
			w := workloads[name](seed, tiny)
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			res := measure(w, budget, nil)
			if res.ops%w.roundOps() != 0 {
				t.Errorf("%s: %d ops is not a whole number of %d-op rounds", name, res.ops, w.roundOps())
			}
			return res.digest
		}
		a, b := digestOf(5, 0), digestOf(5, 0.1)
		if a != b {
			t.Errorf("%s: digest %s then %s for the same seed", name, a, b)
		}
		if c := digestOf(6, 0); c == a {
			t.Errorf("%s: seeds 5 and 6 share digest %s", name, a)
		}
	}
}

// setIgnoringRouter sends every task to server 0, eligible or not.
type setIgnoringRouter struct{}

func (setIgnoringRouter) Name() string                   { return "set-ignoring" }
func (setIgnoringRouter) Pick(*sim.State, core.Task) int { return 0 }

// firstInSetRouter respects processing sets but is not EFT.
type firstInSetRouter struct{}

func (firstInSetRouter) Name() string { return "first-in-set" }
func (firstInSetRouter) Pick(_ *sim.State, t core.Task) int {
	return t.Set[0]
}

func TestFig11CheckTrips(t *testing.T) {
	for _, tc := range []struct {
		router sim.Router
		want   string
	}{
		{setIgnoringRouter{}, "picked invalid server"},
		{firstInSetRouter{}, "Proposition 1 broken"},
	} {
		f := newFig11(1, 400)
		f.newRouter = func(sched.TieBreak) sim.Router { return tc.router }
		// Op 36 is the first op of the Uniform case at load 1.0, where
		// queues form and a non-EFT choice raises Fmax.
		const i = 36
		err := f.prepare(i, nil)
		if err == nil {
			err = f.op(i, nil)
		}
		if err == nil {
			err = f.check(i, nil, nil)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.router.Name(), err, tc.want)
		}
	}
}

func TestConservationTrips(t *testing.T) {
	em := &sim.ElasticMetrics{HedgesIssued: 10, HedgeWinsCopy: 3, HedgesCancelled: 5, HedgesRevoked: 2,
		RetriesRequested: 7, RetriesIssued: 4, RetriesDropped: 3}
	if err := conservation(em); err != nil {
		t.Fatalf("balanced ledgers rejected: %v", err)
	}
	hedge := *em
	hedge.HedgesCancelled--
	if err := conservation(&hedge); err == nil || !strings.Contains(err.Error(), "hedge ledger") {
		t.Errorf("tampered hedge count: got %v", err)
	}
	retry := *em
	retry.RetriesIssued++
	if err := conservation(&retry); err == nil || !strings.Contains(err.Error(), "retry ledger") {
		t.Errorf("tampered retry count: got %v", err)
	}
}

// At seed 1 with MaxM 12 and MaxN 300 (cmd/chaos defaults), trial 178 is a
// known engine failure; the workload must count it as a failed op.
func TestChaosRecordsKnownFailure(t *testing.T) {
	c := newChaosAudited(1, 12, 300)
	const trial = 178
	if err := c.op(trial, nil); err != nil {
		t.Fatal(err)
	}
	err := c.check(trial, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "hedge resolution broken") {
		t.Errorf("trial %d: got %v, want the hedge-resolution violation", trial, err)
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tailLatency(xs); p != 90 || v != 180 {
		t.Errorf("200 values: p%g = %v, want p90 = 180", p, v)
	}
	if p, v := tailLatency(xs[:30]); p != 50 || v != 15 {
		t.Errorf("30 values: p%g = %v, want p50 = 15", p, v)
	}
	if p, v := tailLatency(xs[:5]); p != 50 || v != 3 {
		t.Errorf("5 values: p%g = %v, want p50 = 3", p, v)
	}
}
