package shortest

import (
	"math"

	"repro/internal/roadnet"
)

// heapItem is an entry of the priority queue: a node and its current
// priority (tentative distance, plus heuristic for A*). The queue uses
// lazy deletion: stale entries are skipped at pop time via the settled
// stamp, which avoids a decrease-key operation.
type heapItem struct {
	node roadnet.NodeID
	prio float64
}

// nodeHeap is a minimal binary min-heap specialized for heapItem. It is
// hand-rolled instead of using container/heap to avoid the interface
// boxing on every push/pop, which dominates Dijkstra's inner loop, and
// it sifts exactly as container/heap does, so ties pop in the same
// order (TestNodeHeapMatchesContainerHeap).
type nodeHeap struct {
	items []heapItem
}

func (h *nodeHeap) reset()   { h.items = h.items[:0] }
func (h *nodeHeap) len() int { return len(h.items) }

// min returns the smallest priority, +Inf when the heap is empty.
func (h *nodeHeap) min() float64 {
	if len(h.items) == 0 {
		return math.Inf(1)
	}
	return h.items[0].prio
}

func (h *nodeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].prio <= h.items[i].prio {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *nodeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.items[l].prio < h.items[smallest].prio {
			smallest = l
		}
		if r < last && h.items[r].prio < h.items[smallest].prio {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}
