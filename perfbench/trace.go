package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"flowsched/internal/core"
	"flowsched/internal/sim"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Aggregate spans (Count > 0) stand for many short calls under
// one parent — the router's picks inside a sim.Run — and cover the summed
// duration of those calls starting at the first one.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tasks  int    `json:"tasks,omitempty"` // simulated tasks the call processed
	Count  int    `json:"count,omitempty"`
}

// tracer keeps spans in memory for the length of a run. A nil *tracer
// records nothing, so untraced loops call the same methods.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string, tasks int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now(), Tasks: tasks})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// aggregate records count calls totalling dur, starting at from, as one
// child of the innermost open span.
func (t *tracer) aggregate(name string, from int64, dur time.Duration, count int) {
	if t == nil || count == 0 {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.open[len(t.open)-1],
		Start: from, End: from + int64(dur), Count: count})
}

// layerTotals sums the spans of one name.
type layerTotals struct {
	spans  int
	durNs  int64 // Σ span duration
	selfNs int64 // Σ duration minus the time direct children cover
	tasks  int64
	count  int64 // Σ Count of aggregate spans
}

// totals folds the spans into per-name totals.
func (t *tracer) totals() map[string]*layerTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.spans++
		lt.durNs += s.End - s.Start
		lt.selfNs += s.End - s.Start - child[i]
		lt.tasks += int64(s.Tasks)
		lt.count += int64(s.Count)
	}
	return out
}

// writeSpans writes every workload's spans as JSON lines tagged with the
// workload.
func writeSpans(path string, traces map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, name := range workloadNames() {
		for _, s := range traces[name].spans {
			line := struct {
				Workload string `json:"workload"`
				span
			}{name, s}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timingRouter times every Pick of a stateless router. The totals feed one
// aggregate router.pick span per simulation.
type timingRouter struct {
	sim.Router
	first int64
	dur   time.Duration
	picks int
	t     *tracer
}

func (r *timingRouter) Pick(st *sim.State, task core.Task) int {
	t0 := time.Now()
	if r.picks == 0 {
		r.first = r.t.now()
	}
	j := r.Router.Pick(st, task)
	r.dur += time.Since(t0)
	r.picks++
	return j
}

// clockNs is the host cost of one time.Now reading, measured once per
// traced run; per-pick figures subtract the readings the timing wrapper
// adds.
func clockNs() float64 {
	const reads = 1 << 16
	var sink time.Duration
	samples := make([]float64, 5)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < reads; i++ {
			sink += time.Since(t0)
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / reads
	}
	_ = sink
	return median(samples)
}
