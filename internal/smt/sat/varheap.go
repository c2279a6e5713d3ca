package sat

// varHeap is an indexed binary max-heap of variables ordered by VSIDS
// activity. It supports insert, activity update, and pop-max; variables
// absent from the heap have position -1.
//
// keys[i] is a bit-identical copy of the activity of heap[i], so sifting
// compares adjacent keys instead of loading each entry's activity from a
// per-variable array. The copy is refreshed whenever the activity of a
// heaped variable changes (update, scale); the layout and every
// comparison are those of a heap that reads the activities directly, so
// every pop is too. The two arrays stay parallel rather than forming one
// slice of {key, var} pairs: the pair pads to 16 bytes, which measured
// the same speed and 1.1 % more allocation on dc-256.
type varHeap struct {
	heap []Var
	keys []float64 // keys[i] == activity[heap[i]]
	pos  []int32   // var → index in heap, -1 if absent
}

func newVarHeap() *varHeap { return &varHeap{} }

// reset empties the heap, keeping its capacity (ensure writes every
// position it extends to, so stale ones need no clearing).
func (h *varHeap) reset() { h.heap, h.keys, h.pos = h.heap[:0], h.keys[:0], h.pos[:0] }

// reserve gives the heap capacity for c variables.
func (h *varHeap) reserve(c int) {
	if c > cap(h.pos) {
		h.pos = grow(h.pos, c)
		h.heap = grow(h.heap, c)
		h.keys = grow(h.keys, c)
	}
}

func (h *varHeap) ensure(v Var) {
	if int(v) < len(h.pos) {
		return
	}
	if int(v) >= cap(h.pos) {
		h.reserve(2*int(v) + 64)
	}
	old := len(h.pos)
	h.pos = h.pos[:v+1]
	for i := old; i <= int(v); i++ {
		h.pos[i] = -1
	}
}

// insert adds v, keyed by act[v], if absent.
func (h *varHeap) insert(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.keys = append(h.keys, act[v])
	h.siftUp(len(h.heap) - 1)
}

// appendZero adds the variables from..to-1, none of them in the heap yet,
// each keyed by a zero activity: in index order at the end of the heap,
// which is where insert would leave each of them, since a zero key never
// rises above a parent (no activity is negative).
func (h *varHeap) appendZero(from, to Var) {
	if from >= to {
		return
	}
	h.ensure(to - 1)
	at, n := len(h.heap), int(to-from)
	h.heap = append(h.heap, make([]Var, n)...)
	h.keys = append(h.keys, make([]float64, n)...)
	for i := range n {
		h.heap[at+i] = from + Var(i)
		h.pos[from+Var(i)] = int32(at + i)
	}
}

// update restores heap order after v's activity increased to act[v].
func (h *varHeap) update(v Var, act []float64) {
	h.ensure(v)
	i := h.pos[v]
	if i == -1 {
		return
	}
	h.keys[i] = act[v]
	h.siftUp(int(i))
}

// scale multiplies every key by f, as the activities they copy were.
func (h *varHeap) scale(f float64) {
	for i := range h.keys {
		h.keys[i] *= f
	}
}

// popMax removes and returns the highest-activity variable.
func (h *varHeap) popMax() (Var, bool) {
	n := len(h.heap) - 1
	if n < 0 {
		return -1, false
	}
	top := h.heap[0]
	h.pos[top] = -1
	last, lastKey := h.heap[n], h.keys[n]
	h.heap, h.keys = h.heap[:n], h.keys[:n]
	if n > 0 {
		h.heap[0], h.keys[0] = last, lastKey
		h.siftDown(0)
	}
	return top, true
}

func (h *varHeap) siftUp(i int) {
	v, k := h.heap[i], h.keys[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] >= k {
			break
		}
		h.heap[i], h.keys[i] = h.heap[parent], h.keys[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i], h.keys[i] = v, k
	h.pos[v] = int32(i)
}

func (h *varHeap) siftDown(i int) {
	v, k := h.heap[i], h.keys[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.keys[right] > h.keys[left] {
			best = right
		}
		if k >= h.keys[best] {
			break
		}
		h.heap[i], h.keys[i] = h.heap[best], h.keys[best]
		h.pos[h.heap[i]] = int32(i)
		i = best
	}
	h.heap[i], h.keys[i] = v, k
	h.pos[v] = int32(i)
}
