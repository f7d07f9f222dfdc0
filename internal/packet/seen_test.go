package packet

import (
	"math/rand"
	"testing"
)

// sliceDedup is the slice-FIFO duplicate filter SeenWindow replaced,
// kept verbatim as the reference its semantics are checked against.
type sliceDedup struct {
	seen map[uint64]bool
	fifo []uint64
	cap  int
}

func (d *sliceDedup) duplicate(flow, seq uint32) bool {
	key := uint64(flow)<<32 | uint64(seq)
	if d.seen[key] {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[uint64]bool, 64)
	}
	d.seen[key] = true
	d.fifo = append(d.fifo, key)
	if len(d.fifo) > d.cap {
		delete(d.seen, d.fifo[0])
		d.fifo = d.fifo[1:]
	}
	return false
}

func TestSeenWindowDedupCases(t *testing.T) {
	w := NewSeenWindow(4)
	if w.Seen(1, 1) {
		t.Fatal("first sighting reported duplicate")
	}
	if !w.Seen(1, 1) {
		t.Fatal("second sighting not duplicate")
	}
	// Different flow, same seq is distinct.
	if w.Seen(2, 1) {
		t.Fatal("flow collision")
	}
	// Eviction: fill past capacity, oldest forgotten.
	for i := uint32(10); i < 20; i++ {
		w.Seen(1, i)
	}
	if w.Seen(1, 1) {
		t.Fatal("evicted entry still remembered")
	}
}

// TestSeenWindowMatchesSliceFIFO drives the window and the reference
// filter with the same random streams and requires identical answers.
func TestSeenWindowMatchesSliceFIFO(t *testing.T) {
	for _, capacity := range []int{1, 4, 1024} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := NewSeenWindow(capacity)
			ref := &sliceDedup{cap: capacity}
			var recent []uint64
			dups := 0
			for i := 0; i < 20*capacity+2000; i++ {
				flow, seq := uint32(rng.Intn(3)), uint32(rng.Intn(4*capacity+8))
				if len(recent) > 0 && rng.Intn(3) == 0 {
					// Re-inject a recent key: duplicates near and across
					// the eviction boundary.
					k := recent[rng.Intn(len(recent))]
					flow, seq = uint32(k>>32), uint32(k)
				}
				want := ref.duplicate(flow, seq)
				if got := w.Seen(flow, seq); got != want {
					t.Fatalf("cap %d seed %d step %d: Seen(%d,%d) = %v, reference %v",
						capacity, seed, i, flow, seq, got, want)
				}
				if want {
					dups++
				}
				recent = append(recent, uint64(flow)<<32|uint64(seq))
				if len(recent) > 2*capacity+2 {
					recent = recent[1:]
				}
			}
			if dups == 0 {
				t.Fatalf("cap %d seed %d: stream injected no duplicates", capacity, seed)
			}
		}
	}
}

// TestSeenWindowEvictionBoundary re-sends a key exactly cap and cap+1
// distinct inserts after it: the first is still remembered, the second
// forgotten, in both the window and the reference.
func TestSeenWindowEvictionBoundary(t *testing.T) {
	for _, capacity := range []int{1, 4, 1024} {
		for _, tc := range []struct {
			between int
			want    bool
		}{{capacity - 1, true}, {capacity, false}} {
			w := NewSeenWindow(capacity)
			ref := &sliceDedup{cap: capacity}
			// Pre-fill so the ring has wrapped before the probe key goes in.
			for i := 0; i < 3*capacity; i++ {
				w.Seen(9, uint32(i))
				ref.duplicate(9, uint32(i))
			}
			w.Seen(7, 7)
			ref.duplicate(7, 7)
			for i := 0; i < tc.between; i++ {
				w.Seen(8, uint32(i))
				ref.duplicate(8, uint32(i))
			}
			// The probe is the cap-th (between == cap-1) or the
			// (cap+1)-th (between == cap) distinct insert since 7/7.
			want := ref.duplicate(7, 7)
			if want != tc.want {
				t.Fatalf("cap %d, %d keys between: reference says %v, test expects %v",
					capacity, tc.between, want, tc.want)
			}
			if got := w.Seen(7, 7); got != want {
				t.Fatalf("cap %d, %d keys between: Seen = %v, want %v", capacity, tc.between, got, want)
			}
		}
	}
}

// TestSeenWindowFullIsAllocationFree pins the full window's per-packet
// cost at zero. The Go runtime's map still rehashes now and then to
// reclaim deleted slots (a few dozen allocations per million packets),
// which the per-run average rounds away.
func TestSeenWindowFullIsAllocationFree(t *testing.T) {
	const capacity = 1024
	w := NewSeenWindow(capacity)
	seq := uint32(0)
	for ; seq < 8*capacity; seq++ {
		w.Seen(1, seq)
	}
	if avg := testing.AllocsPerRun(10000, func() {
		w.Seen(1, seq)
		w.Seen(1, seq) // duplicate path
		seq++
	}); avg != 0 {
		t.Fatalf("full window allocates %.2f per packet", avg)
	}
}
