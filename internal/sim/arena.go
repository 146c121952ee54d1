package sim

import (
	"math"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/eventq"
	"flowsched/internal/resilience"
)

// Arena owns every per-run buffer of the unified engine (elasticsim.go): the
// router-visible State, the schedule's assignment arrays, all metrics slices,
// the per-task attempt/sequence/re-timing state, the per-server FIFOs
// (fifoQueues — an index-chained freelist, not [][]int), the head heap of
// pending completions, the timer event queue, the parked-task buffers and
// the overload/elastic runtime scratch. A fresh run allocates all of this
// (~2,400 allocations for a 5,000-task instance, almost all of it FIFO
// append traffic); running through a reused Arena reslices it instead,
// taking the steady-state cost to a handful of allocations per run (pinned
// by TestRunFaultyAllocs and friends, gated by the SimRun*Steady benchreg
// entries).
//
// Ownership contract: the *core.Schedule and *ElasticMetrics returned by an
// Arena's Run methods point INTO the arena. They are valid until the arena's
// next Run call, which recycles them in place. Callers that need results to
// outlive the next run must copy what they keep — or use the package-level
// Run functions, which give every call a private arena.
//
// An Arena is not safe for concurrent use; parallel trial loops keep one per
// worker (internal/chaos and internal/experiments use a sync.Pool).
type Arena struct {
	st State

	// Schedule backing (sched.Machine/sched.Start alias machine/start).
	machine []int
	start   []core.Time
	sched   core.Schedule

	// Metrics backing. The metrics value is rebuilt per run; the slices are
	// recycled. rejected/shedded/reason attach only on guarded runs,
	// dispatched only on elastic runs — disabled layers keep their nil
	// fields, exactly as a fresh run would.
	metrics    ElasticMetrics
	flows      []core.Time
	stretches  []core.Time
	busy       []core.Time
	attempts   []int
	dropped    []bool
	parkedBits []bool
	releases   []core.Time
	downtime   []core.Time
	rejected   []bool
	shedded    []bool
	reason     []string
	dispatched core.Times

	// Engine state.
	live     []bool
	seq      []uint64 // attempt → completion sequence number (see stamp)
	seqN     uint64   // last sequence number drawn this run
	curStart []core.Time
	curEnd   []core.Time
	busyAdd  []core.Time
	fq       fifoQueues
	parked   []int // requests waiting for any replica to recover
	wake     []int // swap buffer for wakeAll / restore

	heads  eventq.HeadHeap // each non-empty queue's head completion (see rekey)
	events eventq.Queue[faultEvent]

	liveBuf core.ProcSet // dispatch-time live-subset scratch

	// Overload / elastic / hedge / resilience runtimes (their scratch slices
	// are recycled via the struct fields; see the cfg/ecfg/hcfg/rcfg setup
	// blocks in elasticsim.go).
	ov         ovRun
	el         elRun
	hd         hdRun
	rs         rsRun
	membership elastic.Membership
	ctrl       elastic.Controller
	breakers   resilience.Breakers
}

// NewArena returns an empty arena. The first run sizes it; later runs of the
// same shape reuse every buffer.
func NewArena() *Arena { return &Arena{} }

// Reset prepares the arena for a run of n tasks on m machine slots: every
// size-dependent buffer is resliced (reallocating only when capacity is
// short) and reinitialized to its fresh-run state. The Run methods call it
// internally; it is exported so callers sizing an arena ahead of a batch can
// pre-grow it once.
func (a *Arena) Reset(n, m int) {
	a.st.Now = 0
	a.st.M = m
	a.st.Completion = resliceZero(a.st.Completion, m)
	a.st.QueueLen = resliceZero(a.st.QueueLen, m)

	a.machine = grow(a.machine, n)
	a.start = grow(a.start, n)
	for i := 0; i < n; i++ {
		a.machine[i] = -1
		a.start[i] = math.NaN()
	}

	a.flows = resliceZero(a.flows, n)
	a.stretches = resliceZero(a.stretches, n)
	a.busy = resliceZero(a.busy, m)
	a.attempts = resliceZero(a.attempts, n)
	a.dropped = resliceZero(a.dropped, n)
	a.parkedBits = resliceZero(a.parkedBits, n)
	a.releases = grow(a.releases, n) // filled from the instance before use

	a.live = grow(a.live, m)
	for j := 0; j < m; j++ {
		a.live[j] = true
	}
	a.seq = grow(a.seq, n) // stamped before any read
	a.seqN = 0
	a.curStart = resliceZero(a.curStart, n)
	a.curEnd = resliceZero(a.curEnd, n)
	a.busyAdd = resliceZero(a.busyAdd, n)
	a.fq.reset(n, m)
	a.parked = a.parked[:0]
	a.wake = a.wake[:0]

	a.heads.Reset(m)
	a.events.Clear()

	if cap(a.liveBuf) < m {
		a.liveBuf = make(core.ProcSet, 0, m)
	}
}

// grow reslices buf to n elements, reallocating only when its capacity is
// short. Contents are unspecified; callers overwrite every element (or use
// resliceZero).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resliceZero reslices buf to n zeroed elements without reallocating when
// capacity allows.
func resliceZero[T any](buf []T, n int) []T {
	buf = grow(buf, n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// fifoQueues is the per-server FIFO freelist: every task sits in at most one
// server queue at a time, so a single task-indexed successor array plus
// per-server head/tail cursors represent all m queues with zero per-operation
// allocation — replacing the [][]int slices whose append/shrink churn
// dominated the robustness paths' allocation counts.
type fifoQueues struct {
	next []int // task id → next task in its queue (−1 = last)
	head []int // server → first queued task (−1 = empty)
	tail []int // server → last queued task (−1 = empty)
}

// reset prepares the freelist for n tasks on m servers. next needs no
// clearing: a task's link is written by push before it can be read.
func (f *fifoQueues) reset(n, m int) {
	f.next = grow(f.next, n)
	f.head = grow(f.head, m)
	f.tail = grow(f.tail, m)
	for j := 0; j < m; j++ {
		f.head[j] = -1
		f.tail[j] = -1
	}
}

// push appends task id to server j's queue.
func (f *fifoQueues) push(j, id int) {
	f.next[id] = -1
	if t := f.tail[j]; t >= 0 {
		f.next[t] = id
	} else {
		f.head[j] = id
	}
	f.tail[j] = id
}

// popHead removes and returns server j's queue head (the queue must be
// non-empty).
func (f *fifoQueues) popHead(j int) int {
	id := f.head[j]
	h := f.next[id]
	f.head[j] = h
	if h < 0 {
		f.tail[j] = -1
	}
	return id
}

// remove unlinks task id from anywhere in server j's queue, preserving the
// order of the rest. A task not actually queued on j is a no-op.
func (f *fifoQueues) remove(j, id int) {
	prev := f.head[j]
	if prev == id {
		f.popHead(j)
		return
	}
	for prev >= 0 && f.next[prev] != id {
		prev = f.next[prev]
	}
	if prev < 0 {
		return
	}
	f.next[prev] = f.next[id]
	if f.tail[j] == id {
		f.tail[j] = prev
	}
}

// takeAll empties server j's queue and returns its former head; the caller
// walks the chain via next. Capture next[id] before re-dispatching id — a
// dispatch relinks it.
func (f *fifoQueues) takeAll(j int) int {
	h := f.head[j]
	f.head[j] = -1
	f.tail[j] = -1
	return h
}

// stamp draws the next completion sequence number for attempt id, which
// was just (re-)timed. Completions due at the same instant settle in stamp
// order, on any server. Within one queue curEnd never decreases and stamps
// strictly increase front to back, so each queue's head is its earliest
// completion and the head heap alone orders the whole run.
func (a *Arena) stamp(id int) {
	a.seqN++
	a.seq[id] = a.seqN
}

// enqueue appends attempt id, timed to run over [start, end), to server
// j's queue.
func (a *Arena) enqueue(j, id int, start, end core.Time) {
	a.fq.push(j, id)
	a.curStart[id], a.curEnd[id] = start, end
	a.stamp(id)
	if a.fq.head[j] == id {
		a.rekey(j) // the queue was empty: id is its new head
	}
}

// rekey refreshes server j's head-heap entry after its queue head changed,
// was re-timed, or the queue emptied.
func (a *Arena) rekey(j int) {
	if h := a.fq.head[j]; h >= 0 {
		a.heads.Set(j, a.curEnd[h], a.seq[h])
	} else {
		a.heads.Remove(j)
	}
}

// settleHead removes server j's completing head from its queue and re-keys
// j on the next head.
func (a *Arena) settleHead(j int) {
	a.st.QueueLen[j]--
	a.fq.popHead(j)
	a.rekey(j)
}
