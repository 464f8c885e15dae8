package simfleet

import (
	"math/bits"

	"maia/internal/bufpool"
	"maia/internal/vclock"
)

// idleIndex is the set of nodes that can accept a job right now, kept
// current by the event loop so a dispatch never scans the fleet. A
// bitset answers membership, round-robin's next-from and random's k-th
// in word steps; for least-loaded, an indexed min-heap keyed by
// (busy, node) answers the minimum in O(1) and updates in O(log n).
//
// A heap key is fixed while its node is a member: busy accrues only
// while a node runs a job, and a running node is never idle.
type idleIndex struct {
	words []uint64 // bit i set = node i idle
	count int
	// heap and pos exist only when the index is ordered (least-loaded);
	// pos[i] is node i's heap slot while node i is idle.
	heap []idleEntry
	pos  []int32
}

// idleEntry is one least-loaded heap slot.
type idleEntry struct {
	busy vclock.Time
	node int32
}

// before orders heap entries by busy time, then node index: the lowest
// index among the least-busy nodes, as a strict-< ascending scan picks.
func (a idleEntry) before(b idleEntry) bool {
	return a.busy < b.busy || (a.busy == b.busy && a.node < b.node)
}

var (
	wordPool  bufpool.Pool[uint64]
	entryPool bufpool.Pool[idleEntry]
	posPool   bufpool.Pool[int32]
)

// newIdleIndex returns an index over n nodes with every node idle at
// zero busy time (the state Run starts from). ordered enables the
// least-loaded heap.
func newIdleIndex(n int, ordered bool) idleIndex {
	x := idleIndex{words: wordPool.Get((n + 63) / 64), count: n}
	for w := range x.words {
		x.words[w] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 {
		x.words[len(x.words)-1] = 1<<tail - 1
	}
	if ordered {
		// Equal keys in ascending node order already satisfy the heap
		// property: every parent slot precedes its children.
		x.heap = entryPool.Get(n)
		x.pos = posPool.Get(n)
		for i := range x.heap {
			x.heap[i] = idleEntry{node: int32(i)}
			x.pos[i] = int32(i)
		}
	}
	return x
}

// release returns the index's scratch to the pools.
func (x *idleIndex) release() {
	wordPool.Put(x.words)
	entryPool.Put(x.heap)
	posPool.Put(x.pos)
}

// has reports whether node i is idle.
func (x *idleIndex) has(i int) bool {
	return x.words[i>>6]&(1<<(i&63)) != 0
}

// add marks node i idle with the given busy time; a no-op when it
// already is.
func (x *idleIndex) add(i int, busy vclock.Time) {
	if x.has(i) {
		return
	}
	x.words[i>>6] |= 1 << (i & 63)
	x.count++
	if x.pos != nil {
		slot := len(x.heap)
		x.heap = append(x.heap, idleEntry{busy: busy, node: int32(i)})
		x.pos[i] = int32(slot)
		x.up(slot)
	}
}

// remove marks node i not idle; a no-op when it already is.
func (x *idleIndex) remove(i int) {
	if !x.has(i) {
		return
	}
	x.words[i>>6] &^= 1 << (i & 63)
	x.count--
	if x.pos != nil {
		slot, last := int(x.pos[i]), len(x.heap)-1
		x.swap(slot, last)
		x.heap = x.heap[:last]
		if slot < last {
			x.down(slot)
			x.up(slot)
		}
	}
}

// least returns the idle node with the least busy time, lowest index
// first among ties, or -1 when none is idle. The index must be ordered.
func (x *idleIndex) least() int {
	if len(x.heap) == 0 {
		return -1
	}
	return int(x.heap[0].node)
}

// nextFrom returns the first idle node at or after from, wrapping past
// the last node to node 0, or -1 when none is idle.
func (x *idleIndex) nextFrom(from int) int {
	if x.count == 0 {
		return -1
	}
	w := from >> 6
	if w >= len(x.words) {
		w, from = 0, 0
	}
	if word := x.words[w] &^ (1<<(from&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	// count > 0 guarantees a set bit in some word, wrapping back to
	// w's own low bits at the latest.
	for k := 1; ; k++ {
		v := (w + k) % len(x.words)
		if x.words[v] != 0 {
			return v<<6 + bits.TrailingZeros64(x.words[v])
		}
	}
}

// kth returns the k-th idle node (0-based) in ascending node order.
// k must be in [0, count).
func (x *idleIndex) kth(k int) int {
	for w, word := range x.words {
		ones := bits.OnesCount64(word)
		if k >= ones {
			k -= ones
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1 // drop the lowest set bit
		}
		return w<<6 + bits.TrailingZeros64(word)
	}
	panic("simfleet: idle index k-th out of range")
}

// up sifts heap slot i toward the root.
func (x *idleIndex) up(i int) {
	h := x.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		x.swap(i, parent)
		i = parent
	}
}

// down sifts heap slot i toward the leaves.
func (x *idleIndex) down(i int) {
	h := x.heap
	n := len(h)
	for {
		small := i
		if l := 2*i + 1; l < n && h[l].before(h[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[small]) {
			small = r
		}
		if small == i {
			return
		}
		x.swap(i, small)
		i = small
	}
}

// swap exchanges two heap slots and their position records.
func (x *idleIndex) swap(i, j int) {
	h := x.heap
	h[i], h[j] = h[j], h[i]
	x.pos[h[i].node] = int32(i)
	x.pos[h[j].node] = int32(j)
}
