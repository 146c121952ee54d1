package eventq

import (
	"math/rand"
	"testing"
)

// headOracleEntry is one lazily deleted key in the Queue oracle: valid
// while it is still its server's latest key.
type headOracleEntry struct {
	server int
	seq    uint64
}

// pop removes and returns h's minimum.
func pop(h *HeadHeap) (int, float64) {
	j, when := h.Min()
	h.Remove(j)
	return j, when
}

// checkHeadHeapAgainstOracle drives a HeadHeap over m servers and a
// lazy-deletion Queue with the same operations, decoded from ops three
// bytes at a time (opcode, server, time): set a server's key, remove a
// server, or pop the minimum. Times come from four values, so equal keys
// are common. Every set draws the next sequence number, which is also the
// Queue's push order, so the two must pop the same servers at the same
// times, and agree on the minimum and the count of keyed servers after
// every operation.
func checkHeadHeapAgainstOracle(t *testing.T, m int, ops []byte) {
	t.Helper()
	var h HeadHeap
	h.Reset(m)
	var oracle Queue[headOracleEntry]
	latest := make([]uint64, m) // server → seq of its live key, 0 = none
	live := 0
	var seq uint64
	oracleMin := func(pop bool) (int, float64, bool) {
		for oracle.Len() > 0 {
			when, e := oracle.Peek()
			if latest[e.server] != e.seq {
				oracle.Pop() // stale: re-keyed or removed since
				continue
			}
			if pop {
				oracle.Pop()
				latest[e.server] = 0
				live--
			}
			return e.server, when, true
		}
		return 0, 0, false
	}
	for i := 0; i+2 < len(ops); i += 3 {
		j := int(ops[i+1]) % m
		switch ops[i] % 3 {
		case 0:
			seq++
			when := float64(ops[i+2] % 4)
			h.Set(j, when, seq)
			oracle.Push(when, headOracleEntry{server: j, seq: seq})
			if latest[j] == 0 {
				live++
			}
			latest[j] = seq
		case 1:
			h.Remove(j)
			if latest[j] != 0 {
				latest[j] = 0
				live--
			}
		case 2:
			wj, wt, ok := oracleMin(true)
			if ok != (h.Len() > 0) {
				t.Fatalf("op %d: oracle non-empty %v, heap holds %d", i/3, ok, h.Len())
			}
			if !ok {
				continue
			}
			if gj, gt := pop(&h); gj != wj || gt != wt {
				t.Fatalf("op %d: popped server %d at %v, oracle %d at %v", i/3, gj, gt, wj, wt)
			}
		}
		if h.Len() != live {
			t.Fatalf("op %d: heap holds %d servers, oracle %d", i/3, h.Len(), live)
		}
		if wj, wt, ok := oracleMin(false); ok {
			if gj, gt := h.Min(); gj != wj || gt != wt {
				t.Fatalf("op %d: min server %d at %v, oracle %d at %v", i/3, gj, gt, wj, wt)
			}
		}
	}
	// Drain both: the remaining keys must pop in the same order.
	for {
		wj, wt, ok := oracleMin(true)
		if !ok {
			break
		}
		if gj, gt := pop(&h); gj != wj || gt != wt {
			t.Fatalf("drain: popped server %d at %v, oracle %d at %v", gj, gt, wj, wt)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("drain: heap still holds %d servers", h.Len())
	}
}

// TestHeadHeapMatchesLazyQueue checks HeadHeap against the lazy-deletion
// Queue it replaces in the simulator, on random operation sequences.
func TestHeadHeapMatchesLazyQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(20)
		ops := make([]byte, 3*rng.Intn(400))
		rng.Read(ops)
		checkHeadHeapAgainstOracle(t, m, ops)
	}
}

// FuzzHeadHeap is the fuzzing twin of TestHeadHeapMatchesLazyQueue.
func FuzzHeadHeap(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 1, 0, 0, 1, 2, 0, 0})
	f.Add(uint8(4), []byte{0, 1, 2, 0, 2, 2, 0, 3, 1, 1, 2, 0, 2, 0, 0, 0, 1, 1, 2, 0, 0})
	f.Add(uint8(15), []byte{0, 7, 3, 0, 3, 3, 0, 7, 0, 1, 3, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, m uint8, ops []byte) {
		checkHeadHeapAgainstOracle(t, 1+int(m)%32, ops)
	})
}

// TestHeadHeapResetReuses: a reset heap is empty, keeps its backing when it
// fits, and behaves like a fresh one.
func TestHeadHeapResetReuses(t *testing.T) {
	var h HeadHeap
	h.Reset(8)
	for j := 0; j < 8; j++ {
		h.Set(j, float64(8-j), uint64(j+1))
	}
	h.Reset(5)
	if h.Len() != 0 {
		t.Fatalf("reset heap holds %d servers", h.Len())
	}
	h.Remove(4) // absent: a no-op
	h.Set(4, 1, 2)
	h.Set(2, 1, 1)
	if j, when := pop(&h); j != 2 || when != 1 {
		t.Fatalf("popped server %d at %v, want the lower sequence number: server 2 at 1", j, when)
	}
	if avg := testing.AllocsPerRun(100, func() { h.Reset(8) }); avg != 0 {
		t.Fatalf("Reset within capacity allocates %v times", avg)
	}
}

// TestHeadHeapAllocFree pins the steady state: after Reset, setting,
// re-keying, removing and popping never allocate.
func TestHeadHeapAllocFree(t *testing.T) {
	var h HeadHeap
	h.Reset(16)
	var seq uint64
	avg := testing.AllocsPerRun(100, func() {
		for j := 0; j < 16; j++ {
			seq++
			h.Set(j, float64(j%5), seq)
		}
		for j := 0; j < 16; j += 3 {
			seq++
			h.Set(j, 7, seq)
			h.Remove((j + 1) % 16)
		}
		for h.Len() > 0 {
			pop(&h)
		}
	})
	if avg != 0 {
		t.Fatalf("Set/Remove/Pop cycle allocates %v times", avg)
	}
}
