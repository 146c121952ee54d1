package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"flowsched/internal/core"
)

// AttemptOutcome classifies how one dispatch attempt of a task ended.
type AttemptOutcome uint8

const (
	// AttemptPending is an attempt still occupying its server (or the final
	// state of a run that ended mid-attempt, which the engine never does).
	AttemptPending AttemptOutcome = iota
	// AttemptCompleted is an attempt that ran to completion.
	AttemptCompleted
	// AttemptCrashed is an attempt aborted by its server's crash; the task
	// re-entered through a retry or was dropped.
	AttemptCrashed
	// AttemptHandedOff is an attempt aborted by a scale-down drain; the task
	// was handed off to a surviving member.
	AttemptHandedOff
	// AttemptShed is an attempt abandoned by the watermark shedder while the
	// task sat in its server's queue.
	AttemptShed
	// AttemptHedgeCancelled is a losing hedge attempt (a speculative copy, or
	// a primary beaten by its copy) abandoned by first-win cancellation, a
	// tied-mode revocation, or the copy's death.
	AttemptHedgeCancelled
)

// String returns the attempt outcome's wire name.
func (o AttemptOutcome) String() string {
	switch o {
	case AttemptCompleted:
		return "completed"
	case AttemptCrashed:
		return "crashed"
	case AttemptHandedOff:
		return "handed-off"
	case AttemptShed:
		return "shed"
	case AttemptHedgeCancelled:
		return "hedge-cancelled"
	default:
		return "pending"
	}
}

// MarshalJSON implements json.Marshaler: outcomes encode as their names.
func (o AttemptOutcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(o.String())
}

// TraceState is the terminal disposition of a task's span tree.
type TraceState uint8

const (
	// TraceUnfinished is a task with no terminal event yet: still queued,
	// in flight, or parked without an eligible live machine when the run
	// ended.
	TraceUnfinished TraceState = iota
	// TraceCompleted is a task that completed.
	TraceCompleted
	// TraceDropped is a task the retry policy gave up on after a crash.
	TraceDropped
	// TraceRejected is a task turned away by admission control on arrival.
	TraceRejected
	// TraceShed is a task abandoned mid-run by the watermark shedder or by
	// deadline enforcement at dispatch.
	TraceShed
)

// String returns the state's wire name.
func (s TraceState) String() string {
	switch s {
	case TraceCompleted:
		return "completed"
	case TraceDropped:
		return "dropped"
	case TraceRejected:
		return "rejected"
	case TraceShed:
		return "shed"
	default:
		return "unfinished"
	}
}

// MarshalJSON implements json.Marshaler: states encode as their names.
func (s TraceState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// AttemptSpan is one dispatch attempt of a task: the server it was assigned
// to at instant At, the service interval [Start, End) the engine forecast
// (or, for the completing attempt, the final one), and how it ended.
type AttemptSpan struct {
	Server  int            `json:"server"`
	At      core.Time      `json:"-"` // dispatch instant
	Start   core.Time      `json:"-"` // service start
	End     core.Time      `json:"-"` // service end (exact for the completing attempt)
	Outcome AttemptOutcome `json:"outcome"`
	AbortAt core.Time      `json:"-"` // crash/handoff/shed instant; NaN otherwise

	// Retimed marks a completing attempt whose service interval was silently
	// re-timed after a watermark shed ahead of it in the queue. End is still
	// exact (it comes from the completion event); Start is reconstructed as
	// End − proc, which is exact on healthy servers and an upper bound under
	// a gray slowdown.
	Retimed bool `json:"retimed,omitempty"`

	// Hedge marks a speculative copy dispatched by sim.RunHedged: a sibling
	// span racing the primary attempt, resolved by first-win cancellation.
	Hedge bool `json:"hedge,omitempty"`
}

// attemptSpanJSON is the NaN-safe wire form of an AttemptSpan.
type attemptSpanJSON struct {
	Server  int            `json:"server"`
	At      core.NullTime  `json:"at"`
	Start   core.NullTime  `json:"start"`
	End     core.NullTime  `json:"end"`
	Outcome AttemptOutcome `json:"outcome"`
	AbortAt core.NullTime  `json:"abort_at"`
	Retimed bool           `json:"retimed,omitempty"`
	Hedge   bool           `json:"hedge,omitempty"`
}

// MarshalJSON implements json.Marshaler with the engine's NaN sentinels
// encoded as null (core.NullTime).
func (a AttemptSpan) MarshalJSON() ([]byte, error) {
	return json.Marshal(attemptSpanJSON{
		Server: a.Server, At: core.NullTime(a.At), Start: core.NullTime(a.Start),
		End: core.NullTime(a.End), Outcome: a.Outcome,
		AbortAt: core.NullTime(a.AbortAt), Retimed: a.Retimed, Hedge: a.Hedge,
	})
}

// TaskTrace is the causal span tree of one task: the queued root span
// opened at Release, the dispatch attempts in causal order, and the
// terminal disposition.
type TaskTrace struct {
	Task    int        `json:"task"`
	Release core.Time  `json:"-"`
	State   TraceState `json:"state"`
	// EndAt is the terminal instant: the completion end, the drop / shed
	// instant, or the (arrival-time) rejection instant. NaN while
	// unfinished.
	EndAt core.Time `json:"-"`
	// Flow is EndAt − Release: the flow time for completed tasks, the age
	// at disposition for dropped/rejected/shed ones (matching the engine's
	// Metrics.Flows convention). NaN while unfinished.
	Flow core.Time `json:"-"`
	// Reason is the overload disposition reason (reject/shed); empty
	// otherwise.
	Reason string `json:"reason,omitempty"`
	// Retries counts crash-aborted attempts that were rescheduled.
	Retries  int           `json:"retries,omitempty"`
	Attempts []AttemptSpan `json:"attempts,omitempty"`
}

// taskTraceJSON is the NaN-safe wire form of a TaskTrace.
type taskTraceJSON struct {
	Task     int           `json:"task"`
	Release  core.NullTime `json:"release"`
	State    TraceState    `json:"state"`
	EndAt    core.NullTime `json:"end_at"`
	Flow     core.NullTime `json:"flow"`
	Reason   string        `json:"reason,omitempty"`
	Retries  int           `json:"retries,omitempty"`
	Attempts []AttemptSpan `json:"attempts,omitempty"`
}

// MarshalJSON implements json.Marshaler with NaN-safe times.
func (t *TaskTrace) MarshalJSON() ([]byte, error) {
	return json.Marshal(taskTraceJSON{
		Task: t.Task, Release: core.NullTime(t.Release), State: t.State,
		EndAt: core.NullTime(t.EndAt), Flow: core.NullTime(t.Flow),
		Reason: t.Reason, Retries: t.Retries, Attempts: t.Attempts,
	})
}

// QueueWait returns the time the task spent waiting before its first
// (possibly later aborted) service start; NaN if it was never dispatched.
func (t *TaskTrace) QueueWait() core.Time {
	if len(t.Attempts) == 0 {
		return core.Time(math.NaN())
	}
	return t.Attempts[0].Start - t.Release
}

// rank orders traces for KeepWorst retention: terminal traces by their flow
// (age at disposition), unfinished ones as +Inf so a task the run never
// resolved is always worth keeping.
func (t *TaskTrace) rank() float64 {
	if t.State == TraceUnfinished {
		return math.Inf(1)
	}
	return float64(t.Flow)
}

// open returns the task's pending primary attempt — hedge sibling spans are
// skipped: crash/shed/handoff events always target the primary, while hedge
// spans resolve only through complete or hedge-cancel events.
func (t *TaskTrace) open() *AttemptSpan {
	for i := len(t.Attempts) - 1; i >= 0; i-- {
		a := &t.Attempts[i]
		if a.Hedge {
			continue
		}
		if a.Outcome == AttemptPending {
			return a
		}
		return nil // the newest primary attempt is already closed
	}
	return nil
}

// openOn returns the task's most recent pending attempt on the given server
// (hedge spans included), nil if none — the server disambiguates the racing
// attempts of a hedged task.
func (t *TaskTrace) openOn(server int) *AttemptSpan {
	for i := len(t.Attempts) - 1; i >= 0; i-- {
		if a := &t.Attempts[i]; a.Outcome == AttemptPending && a.Server == server {
			return a
		}
	}
	return nil
}

// abort closes the pending primary attempt (if any) with the given outcome
// at the given instant.
func (t *TaskTrace) abort(o AttemptOutcome, at core.Time) {
	if a := t.open(); a != nil {
		a.Outcome = o
		a.AbortAt = at
	}
}

// Retention bounds a Tracer's memory. The zero value keeps every trace.
type Retention struct {
	k int // 0 = keep all
}

// KeepAll retains every task's trace — fine for analysis runs, unbounded
// for production-sized ones.
func KeepAll() Retention { return Retention{} }

// KeepWorst retains exactly the k traces with the largest flow times (ties
// broken toward smaller task ids; tasks the run never resolved rank above
// every finite flow). Benign tasks are discarded the moment they resolve,
// so tracing a million-task run keeps O(k) memory for the tail.
func KeepWorst(k int) Retention {
	if k < 1 {
		k = 1
	}
	return Retention{k: k}
}

// Tracer is a Probe that assembles per-task causal span trees from the engine's event stream with
// zero engine changes: queued → attempt[k] (server, [start,end),
// aborted-by-crash / handed-off / shed) → complete | drop | reject.
//
// The engine re-times attempts queued behind a watermark shed without a
// probe event; the tracer reconciles at completion time — the completion
// instant is always exact, and a mismatch with the forecast interval marks
// the attempt Retimed (see AttemptSpan.Retimed).
//
// A Tracer is not safe for concurrent use; attach one per run.
type Tracer struct {
	retain Retention

	live     map[int]*TaskTrace // tasks with no terminal event yet
	all      []*TaskTrace       // KeepAll: every trace in arrival order
	heap     []*TaskTrace       // KeepWorst: min-heap by (rank, task)
	retained map[int]*TaskTrace // KeepWorst: heap membership by task

	makespan core.Time
	done     bool
}

// NewTracer returns a tracer with the given retention policy (KeepAll() or
// KeepWorst(k)).
func NewTracer(r Retention) *Tracer {
	t := &Tracer{retain: r, live: make(map[int]*TaskTrace)}
	if r.k > 0 {
		t.heap = make([]*TaskTrace, 0, r.k)
		t.retained = make(map[int]*TaskTrace, r.k)
	}
	return t
}

// Done reports whether the traced run has finished (its done event arrived).
func (t *Tracer) Done() bool { return t.done }

// Makespan returns the traced run's makespan (0 before the done event).
func (t *Tracer) Makespan() core.Time { return t.makespan }

// Trace returns the task's trace, nil if it was never seen or was discarded
// by KeepWorst retention.
func (t *Tracer) Trace(task int) *TaskTrace {
	if tr, ok := t.live[task]; ok {
		return tr
	}
	if t.retained != nil {
		return t.retained[task]
	}
	return nil
}

// Traces returns every retained trace sorted by task id.
func (t *Tracer) Traces() []*TaskTrace {
	var out []*TaskTrace
	if t.retain.k > 0 {
		out = append(out, t.heap...)
		for _, tr := range t.live {
			out = append(out, tr)
		}
	} else {
		out = append(out, t.all...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// Worst returns the k retained traces with the largest flow times, worst
// first (ties toward smaller task ids; unfinished tasks rank above every
// finite flow).
func (t *Tracer) Worst(k int) []*TaskTrace {
	out := t.Traces()
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].rank(), out[j].rank()
		if ri != rj {
			return ri > rj
		}
		return out[i].Task < out[j].Task
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// worse reports whether a outranks b in the (rank, task) total order.
func worse(a, b *TaskTrace) bool {
	ra, rb := a.rank(), b.rank()
	if ra != rb {
		return ra > rb
	}
	return a.Task < b.Task
}

func (t *Tracer) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(t.heap[p], t.heap[i]) {
			break
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *Tracer) siftDown(i int) {
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(t.heap) && worse(t.heap[least], t.heap[l]) {
			least = l
		}
		if r < len(t.heap) && worse(t.heap[least], t.heap[r]) {
			least = r
		}
		if least == i {
			return
		}
		t.heap[i], t.heap[least] = t.heap[least], t.heap[i]
		i = least
	}
}

// terminal moves a resolved trace into the retention structure.
func (t *Tracer) terminal(tr *TaskTrace) {
	if t.retain.k == 0 {
		return // KeepAll: the trace already lives in t.all
	}
	delete(t.live, tr.Task)
	if len(t.heap) < t.retain.k {
		t.heap = append(t.heap, tr)
		t.retained[tr.Task] = tr
		t.siftUp(len(t.heap) - 1)
		return
	}
	if !worse(tr, t.heap[0]) {
		return // benign: not among the k worst seen so far
	}
	delete(t.retained, t.heap[0].Task)
	t.heap[0] = tr
	t.retained[tr.Task] = tr
	t.siftDown(0)
}

// OnEvent implements Probe, assembling span trees from the task-level
// kinds:
//
//   - arrival opens the task's queued root span;
//   - dispatch opens an attempt with the engine's forecast service interval,
//     and hedge opens a speculative sibling span racing the primary;
//   - complete closes the attempt on its server (a hedged task's winner) or
//     the pending primary, reconciling a silent watermark re-time: the
//     completion end is exact, so a forecast mismatch flags Retimed and
//     reconstructs the start as end − proc;
//   - retry, drop, shed and handoff close the pending primary as crashed,
//     crashed, shed or handed-off; drop, reject and shed resolve the task;
//   - hedge-cancel closes the losing attempt on its server;
//   - done flushes unresolved tasks into retention (ranking above every
//     finite flow) in task order.
//
// Server-level kinds carry no per-task consequence: a crash reaches tasks
// through retry or drop, a drain through handoff, and a hedge win through
// complete and hedge-cancel. Events for tasks the tracer never saw arrive
// (a tracer attached mid-run) are ignored.
func (t *Tracer) OnEvent(ev Event) {
	if ev.Kind == Done {
		t.done = true
		t.makespan = ev.T
		if t.retain.k > 0 {
			ids := make([]int, 0, len(t.live))
			for id := range t.live {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				t.terminal(t.live[id])
			}
		}
		return
	}
	if ev.Kind == Arrival {
		tr := &TaskTrace{
			Task: ev.Task, Release: ev.T,
			EndAt: core.Time(math.NaN()), Flow: core.Time(math.NaN()),
		}
		t.live[ev.Task] = tr
		if t.retain.k == 0 {
			t.all = append(t.all, tr)
		}
		return
	}
	if kinds[ev.Kind].fields&fTask == 0 {
		return
	}
	tr := t.live[ev.Task]
	if tr == nil {
		return
	}
	resolve := func(s TraceState, release core.Time) {
		tr.State = s
		tr.EndAt = ev.T
		tr.Flow = ev.T - release
		t.terminal(tr)
	}
	switch ev.Kind {
	case Dispatch, Hedge:
		tr.Attempts = append(tr.Attempts, AttemptSpan{
			Server: ev.Server, At: ev.T, Start: ev.Start, End: ev.End,
			AbortAt: core.Time(math.NaN()), Hedge: ev.Kind == Hedge,
		})
	case Complete:
		end := ev.T
		a := tr.openOn(ev.Server) // the winning attempt of a hedged task, by server
		if a == nil {
			a = tr.open()
		}
		if a == nil {
			// Defensive: a completion with no pending attempt (cannot happen
			// with the engine's event contract). Record a synthetic attempt.
			tr.Attempts = append(tr.Attempts, AttemptSpan{
				Server: ev.Server, At: core.Time(math.NaN()), Start: end - ev.Proc, End: end,
				AbortAt: core.Time(math.NaN()), Retimed: true,
			})
			a = &tr.Attempts[len(tr.Attempts)-1]
		} else if a.End != end {
			// faults.FinishTime is strictly increasing in the start instant,
			// so same end ⟺ same start: a changed end is a complete re-time
			// detector.
			a.Retimed = true
			a.End = end
			a.Start = end - ev.Proc
		}
		a.Outcome = AttemptCompleted
		resolve(TraceCompleted, ev.Release)
	case Drop:
		tr.abort(AttemptCrashed, ev.T)
		resolve(TraceDropped, ev.Release)
	case Retry:
		tr.abort(AttemptCrashed, ev.T)
		tr.Retries++
	case Reject:
		tr.Reason = ev.Reason
		resolve(TraceRejected, tr.Release)
	case Shed:
		// A deadline shed happens before dispatch and has no pending attempt.
		tr.abort(AttemptShed, ev.T)
		tr.Reason = ev.Reason
		resolve(TraceShed, ev.Release)
	case Handoff:
		tr.abort(AttemptHandedOff, ev.T)
	case HedgeCancel:
		if a := tr.openOn(ev.Server); a != nil {
			a.Outcome = AttemptHedgeCancelled
			a.AbortAt = ev.T
		}
	}
}

// WriteJSON writes the retained traces (sorted by task id) and the run's
// makespan as one indented JSON document, NaN-safe.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Makespan core.NullTime `json:"makespan"`
		Tasks    []*TaskTrace  `json:"tasks"`
	}{core.NullTime(t.makespan), t.Traces()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: writing traces: %w", err)
	}
	return nil
}
