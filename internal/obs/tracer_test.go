package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flowsched/internal/core"
)

func TestTracerSpanAssembly(t *testing.T) {
	tr := NewTracer(KeepAll())

	// Task 0: clean single-attempt completion.
	tr.OnEvent(Event{Kind: Arrival, T: 1, Task: 0})
	tr.OnEvent(Event{Kind: Dispatch, T: 1, Task: 0, Server: 2, Start: 3, End: 5})
	tr.OnEvent(Event{Kind: Complete, T: 5, Task: 0, Server: 2, Release: 1, Proc: 2})

	// Task 1: crash-aborted attempt, retry, second attempt completes.
	tr.OnEvent(Event{Kind: Arrival, T: 2, Task: 1})
	tr.OnEvent(Event{Kind: Dispatch, T: 2, Task: 1, Server: 0, Start: 2, End: 6})
	tr.OnEvent(Event{Kind: Failover, T: 4, Server: 0, Lost: 1})
	tr.OnEvent(Event{Kind: Retry, T: 4, Task: 1, Attempt: 1})
	tr.OnEvent(Event{Kind: Dispatch, T: 4, Task: 1, Server: 1, Start: 7, End: 11})
	tr.OnEvent(Event{Kind: Complete, T: 11, Task: 1, Server: 1, Release: 2, Proc: 4})

	// Task 2: crash then drop.
	tr.OnEvent(Event{Kind: Arrival, T: 3, Task: 2})
	tr.OnEvent(Event{Kind: Dispatch, T: 3, Task: 2, Server: 0, Start: 8, End: 9})
	tr.OnEvent(Event{Kind: Drop, T: 10, Task: 2, Release: 3})

	tr.OnEvent(Event{Kind: Done, T: 11})
	if !tr.Done() || tr.Makespan() != 11 {
		t.Fatalf("Done=%v Makespan=%v", tr.Done(), tr.Makespan())
	}

	t0 := tr.Trace(0)
	if t0 == nil || t0.State != TraceCompleted || t0.Flow != 4 || t0.EndAt != 5 {
		t.Fatalf("task 0 trace = %+v", t0)
	}
	if len(t0.Attempts) != 1 || t0.Attempts[0].Outcome != AttemptCompleted ||
		t0.Attempts[0].Server != 2 || t0.Attempts[0].Start != 3 || t0.Attempts[0].Retimed {
		t.Fatalf("task 0 attempts = %+v", t0.Attempts)
	}
	if w := t0.QueueWait(); w != 2 {
		t.Fatalf("task 0 queue wait = %v", w)
	}

	t1 := tr.Trace(1)
	if t1 == nil || t1.State != TraceCompleted || t1.Retries != 1 || len(t1.Attempts) != 2 {
		t.Fatalf("task 1 trace = %+v", t1)
	}
	if a := t1.Attempts[0]; a.Outcome != AttemptCrashed || a.AbortAt != 4 || a.Server != 0 {
		t.Fatalf("task 1 attempt 0 = %+v", a)
	}
	if a := t1.Attempts[1]; a.Outcome != AttemptCompleted || a.End != 11 {
		t.Fatalf("task 1 attempt 1 = %+v", a)
	}

	t2 := tr.Trace(2)
	if t2 == nil || t2.State != TraceDropped || t2.Flow != 7 || len(t2.Attempts) != 1 {
		t.Fatalf("task 2 trace = %+v", t2)
	}
	if a := t2.Attempts[0]; a.Outcome != AttemptCrashed || a.AbortAt != 10 {
		t.Fatalf("task 2 attempt = %+v", a)
	}
}

func TestTracerRetimeReconciliation(t *testing.T) {
	tr := NewTracer(KeepAll())
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 0})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 0, Server: 1, Start: 5, End: 8}) // forecast [5, 8)
	// A watermark shed ahead in the queue silently re-timed the attempt; the
	// completion arrives with a different end.
	tr.OnEvent(Event{Kind: Complete, T: 7, Task: 0, Server: 1, Release: 0, Proc: 3})
	a := tr.Trace(0).Attempts[0]
	if !a.Retimed {
		t.Fatal("forecast-end mismatch not flagged Retimed")
	}
	if a.End != 7 || a.Start != 4 {
		t.Fatalf("reconciled interval [%v, %v), want [4, 7)", a.Start, a.End)
	}

	// Matching forecast stays untouched.
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 1})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 1, Server: 0, Start: 2, End: 6})
	tr.OnEvent(Event{Kind: Complete, T: 6, Task: 1, Server: 0, Release: 0, Proc: 4})
	if a := tr.Trace(1).Attempts[0]; a.Retimed || a.Start != 2 {
		t.Fatalf("clean completion mangled: %+v", a)
	}
}

func TestTracerOverloadAndMembershipHooks(t *testing.T) {
	tr := NewTracer(KeepAll())

	// Rejection on arrival: no attempts, reason recorded.
	tr.OnEvent(Event{Kind: Arrival, T: 1, Task: 0})
	tr.OnEvent(Event{Kind: Reject, T: 1, Task: 0, Reason: "queue-bound"})
	t0 := tr.Trace(0)
	if t0.State != TraceRejected || t0.Reason != "queue-bound" || len(t0.Attempts) != 0 || t0.Flow != 0 {
		t.Fatalf("rejected trace = %+v", t0)
	}

	// Watermark shed closes the open attempt; deadline shed (no dispatch)
	// leaves none.
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 1})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 1, Server: 2, Start: 5, End: 6})
	tr.OnEvent(Event{Kind: Shed, T: 9, Task: 1, Server: 2, Release: 0, Reason: "watermark"})
	t1 := tr.Trace(1)
	if t1.State != TraceShed || t1.Flow != 9 || t1.Attempts[0].Outcome != AttemptShed ||
		t1.Attempts[0].AbortAt != 9 {
		t.Fatalf("shed trace = %+v", t1)
	}
	tr.OnEvent(Event{Kind: Arrival, T: 4, Task: 2})
	tr.OnEvent(Event{Kind: Shed, T: 7, Task: 2, Server: 3, Release: 4, Reason: "deadline"})
	if t2 := tr.Trace(2); t2.State != TraceShed || len(t2.Attempts) != 0 || t2.Flow != 3 {
		t.Fatalf("deadline-shed trace = %+v", t2)
	}

	// Handoff closes the attempt as handed-off; the re-dispatch opens a new
	// one and the completion closes it.
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 3})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 3, Server: 0, Start: 1, End: 4})
	tr.OnEvent(Event{Kind: ScaleDown, T: 2, Server: 0, Members: 3, Handoffs: 1})
	tr.OnEvent(Event{Kind: Handoff, T: 2, Task: 3, Server: 0})
	tr.OnEvent(Event{Kind: Dispatch, T: 2, Task: 3, Server: 1, Start: 2, End: 5})
	tr.OnEvent(Event{Kind: Complete, T: 5, Task: 3, Server: 1, Release: 0, Proc: 3})
	t3 := tr.Trace(3)
	if len(t3.Attempts) != 2 || t3.Attempts[0].Outcome != AttemptHandedOff ||
		t3.Attempts[0].AbortAt != 2 || t3.Attempts[1].Outcome != AttemptCompleted {
		t.Fatalf("handoff trace = %+v", t3.Attempts)
	}
	if t3.Retries != 0 {
		t.Fatalf("handoff counted as retry: %+v", t3)
	}
}

// TestTracerKeepWorstExact pins the KeepWorst contract: after the run, the
// retained set is exactly the k tasks with the largest flows under the
// (rank, task) total order, no matter the resolution order.
func TestTracerKeepWorstExact(t *testing.T) {
	const n, k = 200, 7
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tr := NewTracer(KeepWorst(k))
		flows := make([]float64, n)
		order := rng.Perm(n)
		for _, id := range order {
			// Coarse quantization forces rank ties so the task-id tiebreak is
			// exercised, not just the float order.
			flow := float64(rng.Intn(12))
			flows[id] = flow
			tr.OnEvent(Event{Kind: Arrival, T: 0, Task: id})
			tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: id, Server: 0, Start: 0, End: core.Time(flow)})
			tr.OnEvent(Event{Kind: Complete, T: core.Time(flow), Task: id, Server: 0, Release: 0, Proc: 1})
		}
		tr.OnEvent(Event{Kind: Done, T: 100})

		// Oracle: sort all tasks by (flow desc, id asc), take the first k.
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool {
			if flows[ids[a]] != flows[ids[b]] {
				return flows[ids[a]] > flows[ids[b]]
			}
			return ids[a] < ids[b]
		})
		want := ids[:k]

		got := tr.Worst(k)
		if len(got) != k {
			t.Fatalf("trial %d: retained %d traces, want %d", trial, len(got), k)
		}
		for i, tr := range got {
			if tr.Task != want[i] {
				t.Fatalf("trial %d: worst[%d] = T%d (flow %v), want T%d (flow %v)",
					trial, i, tr.Task, tr.Flow, want[i], flows[want[i]])
			}
		}
		// Traces() and Trace() agree with the heap contents.
		if len(tr.Traces()) != k {
			t.Fatalf("trial %d: Traces() returned %d, want %d", trial, len(tr.Traces()), k)
		}
		for _, id := range want {
			if tr.Trace(id) == nil {
				t.Fatalf("trial %d: retained task %d not addressable", trial, id)
			}
		}
	}
}

func TestTracerKeepWorstUnfinishedRanksWorst(t *testing.T) {
	tr := NewTracer(KeepWorst(2))
	for id := 0; id < 5; id++ {
		tr.OnEvent(Event{Kind: Arrival, T: 0, Task: id})
		tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: id, Server: 0, Start: 0, End: core.Time(100 + id)})
		tr.OnEvent(Event{Kind: Complete, T: core.Time(100 + id), Task: id, Server: 0, Release: 0, Proc: 1})
	}
	tr.OnEvent(Event{Kind: Arrival, T: 50, Task: 9}) // never resolves
	tr.OnEvent(Event{Kind: Done, T: 200})

	worst := tr.Worst(2)
	if len(worst) != 2 || worst[0].Task != 9 || worst[0].State != TraceUnfinished {
		t.Fatalf("worst = %+v", worst)
	}
	if worst[1].Task != 4 { // largest finite flow
		t.Fatalf("worst[1] = T%d, want T4", worst[1].Task)
	}
	if !math.IsInf(worst[0].rank(), 1) {
		t.Fatalf("unfinished rank = %v, want +Inf", worst[0].rank())
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(KeepAll())
	tr.OnEvent(Event{Kind: Arrival, T: 1, Task: 0})
	tr.OnEvent(Event{Kind: Dispatch, T: 1, Task: 0, Server: 2, Start: 3, End: 5})
	tr.OnEvent(Event{Kind: Complete, T: 5, Task: 0, Server: 2, Release: 1, Proc: 2})
	tr.OnEvent(Event{Kind: Arrival, T: 2, Task: 1}) // unfinished: NaN instants must encode as null
	tr.OnEvent(Event{Kind: Done, T: 5})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Makespan *float64 `json:"makespan"`
		Tasks    []struct {
			Task  int      `json:"task"`
			State string   `json:"state"`
			EndAt *float64 `json:"end_at"`
			Flow  *float64 `json:"flow"`
			Att   []struct {
				Server  int      `json:"server"`
				Outcome string   `json:"outcome"`
				AbortAt *float64 `json:"abort_at"`
			} `json:"attempts"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.Makespan == nil || *doc.Makespan != 5 || len(doc.Tasks) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Tasks[0].State != "completed" || *doc.Tasks[0].Flow != 4 ||
		doc.Tasks[0].Att[0].Outcome != "completed" || doc.Tasks[0].Att[0].AbortAt != nil {
		t.Fatalf("task 0 wire form = %+v", doc.Tasks[0])
	}
	if doc.Tasks[1].State != "unfinished" || doc.Tasks[1].EndAt != nil || doc.Tasks[1].Flow != nil {
		t.Fatalf("unfinished wire form = %+v", doc.Tasks[1])
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatalf("NaN leaked into trace JSON:\n%s", buf.String())
	}
}

func TestTracerHedgeSiblingSpans(t *testing.T) {
	tr := NewTracer(KeepAll())

	// Task 0: hedge issued, the copy wins, the primary is hedge-cancelled.
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 0})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 0, Server: 1, Start: 5, End: 15})      // slow primary
	tr.OnEvent(Event{Kind: Hedge, T: 3, Task: 0, Server: 2, Start: 4, End: 7, From: 1}) // sibling copy on server 2
	tr.OnEvent(Event{Kind: HedgeWin, T: 7, Task: 0, Server: 2, Copy: true})
	tr.OnEvent(Event{Kind: Complete, T: 7, Task: 0, Server: 2, Release: 0, Proc: 3})
	tr.OnEvent(Event{Kind: HedgeCancel, T: 7, Task: 0, Server: 1, Started: true})

	t0 := tr.Trace(0)
	if t0.State != TraceCompleted || len(t0.Attempts) != 2 {
		t.Fatalf("task 0 trace = %+v", t0)
	}
	pri, cp := t0.Attempts[0], t0.Attempts[1]
	if pri.Hedge || pri.Outcome != AttemptHedgeCancelled || pri.AbortAt != 7 {
		t.Fatalf("primary span = %+v", pri)
	}
	if !cp.Hedge || cp.Outcome != AttemptCompleted || cp.Server != 2 || cp.End != 7 {
		t.Fatalf("copy span = %+v", cp)
	}

	// Task 1: hedge issued, the primary wins, the copy is hedge-cancelled
	// before service — the cancellation must close the copy span, not the
	// pending primary.
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 1})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 1, Server: 0, Start: 0, End: 4})
	tr.OnEvent(Event{Kind: Hedge, T: 2, Task: 1, Server: 3, Start: 6, End: 10, From: 0})
	tr.OnEvent(Event{Kind: HedgeWin, T: 4, Task: 1, Server: 0})
	tr.OnEvent(Event{Kind: Complete, T: 4, Task: 1, Server: 0, Release: 0, Proc: 4})
	tr.OnEvent(Event{Kind: HedgeCancel, T: 4, Task: 1, Server: 3})

	t1 := tr.Trace(1)
	if len(t1.Attempts) != 2 {
		t.Fatalf("task 1 trace = %+v", t1)
	}
	if a := t1.Attempts[0]; a.Hedge || a.Outcome != AttemptCompleted {
		t.Fatalf("task 1 primary = %+v", a)
	}
	if a := t1.Attempts[1]; !a.Hedge || a.Outcome != AttemptHedgeCancelled || a.AbortAt != 4 {
		t.Fatalf("task 1 copy = %+v", a)
	}

	// Task 2: a crash aborts the primary while a copy is pending — the
	// crash must close the primary span, skipping the hedge sibling.
	tr.OnEvent(Event{Kind: Arrival, T: 0, Task: 2})
	tr.OnEvent(Event{Kind: Dispatch, T: 0, Task: 2, Server: 0, Start: 0, End: 9})
	tr.OnEvent(Event{Kind: Hedge, T: 2, Task: 2, Server: 1, Start: 5, End: 14, From: 0})
	tr.OnEvent(Event{Kind: Failover, T: 3, Server: 0, Lost: 1})
	tr.OnEvent(Event{Kind: Retry, T: 3, Task: 2, Attempt: 1})
	t2 := tr.Trace(2)
	if a := t2.Attempts[0]; a.Hedge || a.Outcome != AttemptCrashed || a.AbortAt != 3 {
		t.Fatalf("task 2 primary after crash = %+v", a)
	}
	if a := t2.Attempts[1]; !a.Hedge || a.Outcome != AttemptPending {
		t.Fatalf("task 2 copy must stay pending across the primary's crash: %+v", a)
	}

	// The outcome names round-trip through the wire form.
	if AttemptHedgeCancelled.String() != "hedge-cancelled" {
		t.Fatalf("outcome string = %q", AttemptHedgeCancelled.String())
	}
}
