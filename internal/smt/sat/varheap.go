package sat

// varHeap is an indexed binary max-heap of variables ordered by VSIDS
// activity. It supports insert, activity update, and pop-max; variables
// absent from the heap have position -1.
type varHeap struct {
	heap []Var
	pos  []int32 // var → index in heap, -1 if absent
}

func newVarHeap() *varHeap { return &varHeap{} }

// approxBytes estimates the heap's retained memory for ApproxBytes.
func (h *varHeap) approxBytes() int64 {
	return int64(cap(h.heap))*4 + int64(cap(h.pos))*4
}

// reserve gives the heap capacity for c variables.
func (h *varHeap) reserve(c int) {
	if c > cap(h.pos) {
		h.pos = grow(h.pos, c)
		h.heap = grow(h.heap, c)
	}
}

func (h *varHeap) ensure(v Var) {
	if int(v) < len(h.pos) {
		return
	}
	if int(v) >= cap(h.pos) {
		h.reserve(2*int(v) + 64)
	}
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
}

// insert adds v if absent.
func (h *varHeap) insert(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] != -1 {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.siftUp(int(h.pos[v]), act)
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v Var, act []float64) {
	h.ensure(v)
	if h.pos[v] == -1 {
		return
	}
	h.siftUp(int(h.pos[v]), act)
}

// popMax removes and returns the highest-activity variable.
func (h *varHeap) popMax(act []float64) (Var, bool) {
	if len(h.heap) == 0 {
		return -1, false
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.siftDown(0, act)
	}
	return top, true
}

func (h *varHeap) siftUp(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if act[h.heap[parent]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) siftDown(i int, act []float64) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && act[h.heap[right]] > act[h.heap[left]] {
			best = right
		}
		if act[v] >= act[h.heap[best]] {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i]] = int32(i)
		i = best
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
