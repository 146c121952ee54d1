// Package sim is the key-value store substrate: a discrete-event simulation
// of a cluster of servers with FIFO local queues and an immediate-dispatch
// router, as used in the experiments of Section 7.4. Requests are the tasks
// of a core.Instance; the router assigns each arriving request to an
// eligible server at its release instant (scalable stores cannot hold
// central queues — the Immediate Dispatch property of Section 3), and each
// server serves its local queue in arrival order.
//
// Dispatch is immediate and queues are FIFO, so in the fault-free model a
// request's start and end are fixed the moment it is routed. Run walks the
// arrivals in release order and tracks only which requests are still
// unfinished, so routers see exact queue lengths; a request counts as
// finished from its end instant on (completions before arrivals at equal
// instants). Every engine collects per-request flow times plus per-server
// utilization.
package sim

import (
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/eventq"
	"flowsched/internal/obs"
	"flowsched/internal/sched"
	"flowsched/internal/stats"
)

// State is the router-visible cluster state at an arrival instant.
type State struct {
	Now        core.Time
	M          int
	Completion []core.Time // per-server time at which its queue drains
	QueueLen   []int       // per-server number of unfinished requests

	scratch []int // reusable candidate buffer, see Candidates
}

// Candidates returns an empty reusable buffer with capacity for at least
// max(M, setLen) server indices. Routers build per-request candidate sets in
// it instead of allocating; the returned slice (and anything appended to it
// within capacity) is only valid until the next Pick on the same State —
// the scratch-buffer contract documented in DESIGN.md §7. Callers that grow
// the buffer should hand it back via keepScratch so the growth is kept.
func (st *State) Candidates(setLen int) []int {
	need := st.M
	if setLen > need {
		need = setLen
	}
	if cap(st.scratch) < need {
		st.scratch = make([]int, 0, need)
	}
	return st.scratch[:0]
}

// keepScratch retains a (possibly re-grown) candidate buffer for reuse.
func (st *State) keepScratch(buf []int) { st.scratch = buf[:0] }

// Router decides, immediately at arrival, which eligible server runs a
// request.
type Router interface {
	Name() string
	Pick(st *State, t core.Task) int
}

// Resettable is implemented by stateful routers (round-robin cursor, noisy
// EFT beliefs). Run and RunFaulty reset such routers at the start of every
// run, so one router value can be reused across runs safely.
type Resettable interface {
	Reset()
}

// Metrics aggregates a simulation run.
type Metrics struct {
	Flows     []core.Time // per-request flow time, indexed by task ID
	Stretches []core.Time // per-request stretch F_i / p_i
	Busy      []core.Time // per-server total busy time
	Makespan  core.Time
}

// MaxFlow returns the maximum response time of the run.
func (m *Metrics) MaxFlow() core.Time { return stats.Max(m.Flows) }

// MeanFlow returns the mean response time of the run.
func (m *Metrics) MeanFlow() core.Time { return stats.Mean(m.Flows) }

// FlowQuantile returns the q-quantile of response times.
func (m *Metrics) FlowQuantile(q float64) core.Time { return stats.Quantile(m.Flows, q) }

// MaxStretch returns max_i F_i / p_i.
func (m *Metrics) MaxStretch() core.Time { return stats.Max(m.Stretches) }

// MeanStretch returns the mean stretch.
func (m *Metrics) MeanStretch() core.Time { return stats.Mean(m.Stretches) }

// SteadyStateMaxFlow returns the maximum flow among requests after the
// warm-up prefix (skip ∈ [0,1) as a fraction of the run). The paper's
// protocol relies on 10 000 tasks being "sufficient to reach a steady
// state"; this lets callers check that claim (see TestSteadyState).
func (m *Metrics) SteadyStateMaxFlow(skip float64) core.Time {
	if skip < 0 {
		skip = 0
	}
	if skip >= 1 {
		return 0
	}
	from := int(skip * float64(len(m.Flows)))
	return stats.Max(m.Flows[from:])
}

// Utilization returns the average fraction of time servers were busy, over
// the horizon [0, Makespan].
func (m *Metrics) Utilization() float64 {
	if m.Makespan <= 0 || len(m.Busy) == 0 {
		return 0
	}
	total := 0.0
	for _, b := range m.Busy {
		total += b
	}
	return total / (m.Makespan * core.Time(len(m.Busy)))
}

// stretchOf returns flow/proc, the stretch of a request. Zero-proc tasks
// (e.g. trace-derived writes) have undefined stretch; it is reported as 0
// instead of poisoning MeanStretch with ±Inf/NaN.
func stretchOf(flow, proc core.Time) core.Time {
	if proc <= 0 {
		return 0
	}
	return flow / proc
}

// Run simulates the instance under the router and returns the resulting
// schedule (validated against the model invariants by tests) and metrics.
//
// Each server's unfinished requests are a FIFO list linked through the task
// indices, so the only pending completions are the m queue heads. Before
// each arrival the heads that end by its release are popped, which keeps
// State.QueueLen exact (TestRunQueueLenMatchesSchedule) with O(m) work per
// arrival plus O(1) per completion, and one int32 of memory per request.
//
// Full-set instances routed by EFT-Min skip the O(m) completion scan
// entirely: dispatch goes through an eventq.EFTMinPicker in O(log m) per
// request, producing a byte-identical schedule (property-tested against the
// scan path by TestEFTMinFastPathEquivalence and FuzzRouterEquivalence).
func Run(inst *core.Instance, router Router) (*core.Schedule, *Metrics, error) {
	return RunProbed(inst, router, nil)
}

// RunProbed is Run with an observability probe attached: the probe receives
// arrival, dispatch and complete events for every request plus a final done
// (see obs.Probe for the event-time contract — completions are reported
// eagerly at dispatch, where they become final in the fault-free model).
// A nil probe is exactly Run: every emission sits behind a nil guard, so the
// unobserved hot path stays allocation-free (TestProbeNilRunAllocs, the
// ProbeOverheadSim benchreg pair).
func RunProbed(inst *core.Instance, router Router, probe obs.Probe) (*core.Schedule, *Metrics, error) {
	if err := inst.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if r, ok := router.(Resettable); ok {
		r.Reset()
	}
	m := inst.M
	sched := core.NewSchedule(inst)
	metrics := &Metrics{
		Flows:     make([]core.Time, inst.N()),
		Stretches: make([]core.Time, inst.N()),
		Busy:      make([]core.Time, m),
	}
	if isEFTMin(router) && unrestricted(inst) {
		runEFTMinFast(inst, sched, metrics, probe)
		return sched, metrics, nil
	}
	st := &State{
		M:          m,
		Completion: make([]core.Time, m),
		QueueLen:   make([]int, m),
	}

	// Each server's unfinished requests form a FIFO queue linked through
	// the task indices (next; QueueLen[j] is its length), so only the m
	// heads can complete next: headEnd[j] is j's head end, +Inf when the
	// queue is empty. Before the router runs, every head ending at or
	// before the arrival instant is popped, so same-instant completions are
	// visible to the router (completion-before-arrival ordering). A popped
	// head's successor h ends at Start[h]+Proc, the sum its dispatch wrote.
	// Links are int32 task indices: 2³¹ tasks would take over 100 GB of
	// core.Task alone, far beyond any instance this engine runs.
	next := make([]int32, inst.N())
	links := make([]int32, 2*m)
	head, tail := links[:m], links[m:]
	headEnd := make([]core.Time, m)
	for j := range headEnd {
		headEnd[j] = math.Inf(1)
	}

	for i, task := range inst.Tasks {
		st.Now = task.Release
		for j, e := range headEnd {
			if e > st.Now {
				continue
			}
			h := head[j]
			for e <= st.Now {
				st.QueueLen[j]--
				if st.QueueLen[j] == 0 {
					e = math.Inf(1)
					break
				}
				h = next[h]
				e = sched.Start[h] + inst.Tasks[h].Proc
			}
			head[j], headEnd[j] = h, e
		}
		if probe != nil {
			probe.OnEvent(obs.Event{Kind: obs.Arrival, T: task.Release, Task: i})
		}
		j := router.Pick(st, task)
		if j < 0 || j >= m || !task.Eligible(j) {
			if task.Set != nil && len(task.Set) == 0 {
				return nil, nil, fmt.Errorf("sim: task %d has an empty processing set: no eligible server", i)
			}
			return nil, nil, fmt.Errorf("sim: router %s picked invalid server M%d for task %d (set %v)",
				router.Name(), j+1, i, task.Set)
		}
		start := st.Completion[j]
		if task.Release > start {
			start = task.Release
		}
		end := start + task.Proc
		st.Completion[j] = end
		if st.QueueLen[j] == 0 {
			head[j], headEnd[j] = int32(i), end
		} else {
			next[tail[j]] = int32(i)
		}
		tail[j] = int32(i)
		st.QueueLen[j]++
		sched.Assign(i, j, start)
		metrics.Flows[i] = end - task.Release
		metrics.Stretches[i] = stretchOf(end-task.Release, task.Proc)
		metrics.Busy[j] += task.Proc
		if end > metrics.Makespan {
			metrics.Makespan = end
		}
		if probe != nil {
			probe.OnEvent(obs.Event{Kind: obs.Dispatch, T: task.Release, Task: i, Server: j, Start: start, End: end})
			probe.OnEvent(obs.Event{Kind: obs.Complete, T: end, Task: i, Server: j, Release: task.Release, Proc: task.Proc})
		}
	}
	if probe != nil {
		probe.OnEvent(obs.Event{Kind: obs.Done, T: metrics.Makespan})
	}
	return sched, metrics, nil
}

// isEFTMin reports whether the router is the EFT router with the Min
// tie-break (explicitly or by default), the combination with a dedicated
// O(log m) dispatch structure.
func isEFTMin(router Router) bool {
	r, ok := router.(EFTRouter)
	if !ok {
		return false
	}
	if r.Tie == nil {
		return true
	}
	_, isMin := r.Tie.(sched.MinTie)
	return isMin
}

// unrestricted reports whether every task may run on every server.
func unrestricted(inst *core.Instance) bool {
	for _, t := range inst.Tasks {
		if t.Set != nil {
			return false
		}
	}
	return true
}

// runEFTMinFast is the O(n log m) dispatch loop for full-set instances under
// EFT-Min. Queue lengths are irrelevant (EFT never reads them), so the
// per-server FIFO lists are not kept at all; the schedule and metrics are
// byte-identical to the generic loop's. Probe events fire exactly as in the
// generic loop, behind the same nil guard.
func runEFTMinFast(inst *core.Instance, sched *core.Schedule, metrics *Metrics, probe obs.Probe) {
	picker := eventq.NewEFTMinPicker(inst.M)
	for i, task := range inst.Tasks {
		if probe != nil {
			probe.OnEvent(obs.Event{Kind: obs.Arrival, T: task.Release, Task: i})
		}
		j, start := picker.Dispatch(task.Release, task.Proc)
		end := start + task.Proc
		sched.Assign(i, j, start)
		metrics.Flows[i] = end - task.Release
		metrics.Stretches[i] = stretchOf(end-task.Release, task.Proc)
		metrics.Busy[j] += task.Proc
		if end > metrics.Makespan {
			metrics.Makespan = end
		}
		if probe != nil {
			probe.OnEvent(obs.Event{Kind: obs.Dispatch, T: task.Release, Task: i, Server: j, Start: start, End: end})
			probe.OnEvent(obs.Event{Kind: obs.Complete, T: end, Task: i, Server: j, Release: task.Release, Proc: task.Proc})
		}
	}
	if probe != nil {
		probe.OnEvent(obs.Event{Kind: obs.Done, T: metrics.Makespan})
	}
}
