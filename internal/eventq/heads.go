package eventq

// HeadHeap is an indexed min-heap holding at most one key per server: the
// pending completion of the server's FIFO head. A key is (time, seq); equal
// times order by seq, which the caller draws from one per-run counter so
// that simultaneous completions settle in the order they were scheduled.
// Setting and removing a server's key are O(log m); Min is O(1).
// Unlike Queue it never holds stale entries, so its size is bounded by the
// server count however long the queues behind the heads grow.
type HeadHeap struct {
	srv  []headKey // per server
	heap []int     // servers holding a key, heap-ordered
}

// headKey is one server's slot: its key and its heap position.
type headKey struct {
	time float64
	seq  uint64
	pos  int // −1 when the server holds no key
}

// Reset empties the heap and sizes it for servers 0..m−1, reusing its
// backing arrays when their capacity allows.
func (h *HeadHeap) Reset(m int) {
	if cap(h.srv) < m {
		h.srv = make([]headKey, m)
		h.heap = make([]int, 0, m)
	}
	h.srv = h.srv[:m]
	h.heap = h.heap[:0]
	for j := range h.srv {
		h.srv[j].pos = -1
	}
}

// Len reports the number of servers holding a key.
func (h *HeadHeap) Len() int { return len(h.heap) }

// Min returns the server with the smallest key and that key's time. It
// panics on an empty heap; check Len first.
func (h *HeadHeap) Min() (int, float64) {
	j := h.heap[0]
	return j, h.srv[j].time
}

// Set gives server j the key (time, seq), inserting it when absent.
func (h *HeadHeap) Set(j int, time float64, seq uint64) {
	k := &h.srv[j]
	k.time, k.seq = time, seq
	i := k.pos
	if i < 0 {
		i = len(h.heap)
		h.heap = append(h.heap, j)
		k.pos = i
		h.up(i)
		return
	}
	if !h.down(i) {
		h.up(i)
	}
}

// Remove drops server j's key; a server without one is a no-op.
func (h *HeadHeap) Remove(j int) {
	i := h.srv[j].pos
	if i < 0 {
		return
	}
	last := len(h.heap) - 1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.srv[j].pos = -1
	if i < last && !h.down(i) {
		h.up(i)
	}
}

func (h *HeadHeap) less(a, b int) bool {
	ka, kb := &h.srv[h.heap[a]], &h.srv[h.heap[b]]
	if ka.time != kb.time {
		return ka.time < kb.time
	}
	return ka.seq < kb.seq
}

func (h *HeadHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.srv[h.heap[a]].pos = a
	h.srv[h.heap[b]].pos = b
}

func (h *HeadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *HeadHeap) down(i int) bool {
	moved := false
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return moved
		}
		h.swap(i, smallest)
		i = smallest
		moved = true
	}
}
