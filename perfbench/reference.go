package main

import (
	"container/heap"
	"math/rand"
)

// The reference kernel is a fixed piece of work owned by the benchmark: an
// event-queue loop on container/heap, like the simulator's event set but
// sharing no code with the program. measure runs it between blocks of ops
// and expresses each op's CPU time in units of the kernel's CPU time next
// to it, scaled by refNominal. On a shared host a co-tenant on the sibling
// hyperthread or the shared cache slows the process by up to half, for
// seconds to minutes; CPU time cannot leave that out, but it slows the
// kernel alike.
const (
	// refEvery is the CPU seconds of ops between two kernel runs; a
	// fig11_paper round takes less, so it gets one run per round.
	refEvery = 0.5
	// refNominal is the kernel's CPU seconds at the nominal host speed the
	// figures are scaled to, about its time on a 2-vCPU Xeon cloud host.
	refNominal = 0.04
	refKeys    = 2000
	refSteps   = 200000
)

// refHeap is a min-heap of event times. Push and Pop move refNext in and
// out so that the loop allocates nothing.
type refHeap struct {
	keys []float64
	next float64
}

func (h *refHeap) Len() int           { return len(h.keys) }
func (h *refHeap) Less(i, j int) bool { return h.keys[i] < h.keys[j] }
func (h *refHeap) Swap(i, j int)      { h.keys[i], h.keys[j] = h.keys[j], h.keys[i] }
func (h *refHeap) Push(any)           { h.keys = append(h.keys, h.next) }
func (h *refHeap) Pop() any {
	h.next = h.keys[len(h.keys)-1]
	h.keys = h.keys[:len(h.keys)-1]
	return nil
}

// refSink keeps the kernel's result live.
var refSink float64

// refKernel pops the earliest event and schedules a later one, refSteps
// times, on a queue of refKeys events, and returns the CPU seconds it took.
func refKernel() float64 {
	t0 := cpuSeconds()
	rng := rand.New(rand.NewSource(1))
	h := &refHeap{keys: make([]float64, 0, refKeys)}
	for i := 0; i < refKeys; i++ {
		h.next = rng.Float64()
		heap.Push(h, nil)
	}
	for i := 0; i < refSteps; i++ {
		heap.Pop(h)
		h.next += rng.Float64()
		heap.Push(h, nil)
	}
	refSink += h.keys[0]
	return cpuSeconds() - t0
}
