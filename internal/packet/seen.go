package packet

// SeenWindow is a receiver-side duplicate filter over (flow, seq) pairs.
// Semisoft bicasts and multi-tier page floods hand a mobile several
// copies of one packet; the window lets it keep the first and discard
// the rest. A key counts as seen iff it is among the last Cap distinct
// keys inserted: once the window is full, each new key evicts the oldest.
//
// The insertion order lives in a ring that grows to the capacity and then
// wraps, so a full window overwrites in place instead of sliding a slice
// off its backing array. Both the ring and the membership set are grown
// lazily from the first packet: pre-sizing to the eviction capacity would
// charge every mobile of a 10k population tens of kilobytes at build
// time, while a typical mobile holds far fewer in-flight pairs than the
// bound.
//
// A SeenWindow is used by value inside its owner and, like the rest of a
// scenario, by one goroutine only.
type SeenWindow struct {
	set  map[uint64]struct{}
	ring []uint64 // keys in insertion order, oldest at next once full
	next int
	cap  int
}

// NewSeenWindow returns an empty window remembering the last capacity
// distinct keys; capacity must be positive.
func NewSeenWindow(capacity int) SeenWindow { return SeenWindow{cap: capacity} }

// Seen records (flow, seq) and reports whether it was already in the
// window. A repeat does not refresh the key's position.
//
//mmlint:noalloc
func (w *SeenWindow) Seen(flow, seq uint32) bool {
	key := uint64(flow)<<32 | uint64(seq)
	if _, ok := w.set[key]; ok {
		return true
	}
	if w.set == nil {
		w.set = make(map[uint64]struct{}, 64) //mmlint:alloc-ok created on the first packet, then reused
	}
	if len(w.ring) < w.cap {
		w.ring = append(w.ring, key) //mmlint:alloc-ok ring growth stops at the capacity
	} else {
		delete(w.set, w.ring[w.next])
		w.ring[w.next] = key
		w.next++
		if w.next == w.cap {
			w.next = 0
		}
	}
	w.set[key] = struct{}{}
	return false
}
