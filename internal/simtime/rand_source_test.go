package simtime

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// exactSeeds are the seeds whose normalisation rngSource.Seed treats
// specially: zero and its substitute, multiples of the modulus (which
// normalise to zero), negatives, and the int64 extremes.
func exactSeeds() []int64 {
	seeds := []int64{0, 1, 2, -1, -2, 42, 89482311, -89482311, 1 << 31, 1 << 32, -1 << 40,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for k := int64(1); k <= 4; k++ {
		m := k * int32max
		seeds = append(seeds, m, -m, m+1, m-1, -m+1, -m-1)
	}
	return seeds
}

// spreadSeeds are n seeds spread over the whole int64 range.
func spreadSeeds(n int) []int64 {
	seeds := make([]int64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range seeds {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds[i] = int64(z ^ z>>31)
	}
	return seeds
}

// matchDraws checks draws of every Rand method against the math/rand
// equivalent on a reference stream for the same seed, draw for draw.
// The mix of methods makes the source-draw count that each step
// consumes vary, so the promotion point falls inside different
// methods for different seeds.
func matchDraws(t *testing.T, seed int64, draws int) {
	t.Helper()
	r := NewRand(seed)
	ref := rand.New(rand.NewSource(seed))
	fail := func(step int, method string, got, want any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s = %v, math/rand gives %v", seed, step, method, got, want)
	}
	for i := 0; i < draws; i++ {
		switch i % 12 {
		case 0:
			if got, want := r.Float64(), ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				fail(i, "Float64", got, want)
			}
		case 1:
			if got, want := r.Normal(3, 2), 3+2*ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				fail(i, "Normal", got, want)
			}
		case 2:
			if got, want := r.Exponential(5), ref.ExpFloat64()*5; math.Float64bits(got) != math.Float64bits(want) {
				fail(i, "Exponential", got, want)
			}
		case 3:
			n := 1 + i%97
			if got, want := r.Intn(n), ref.Intn(n); got != want {
				fail(i, "Intn", got, want)
			}
		case 4:
			lo, hi := 10*time.Millisecond, 10*time.Millisecond+time.Duration(1+i)*time.Microsecond
			if got, want := r.UniformDuration(lo, hi), lo+time.Duration(ref.Int63n(int64(hi-lo))); got != want {
				fail(i, "UniformDuration", got, want)
			}
		case 5:
			if got, want := r.Int63(), ref.Int63(); got != want {
				fail(i, "Int63", got, want)
			}
		case 6:
			if got, want := r.Uint64(), ref.Uint64(); got != want {
				fail(i, "Uint64", got, want)
			}
		case 7:
			if got, want := r.Bool(0.3), ref.Float64() < 0.3; got != want {
				fail(i, "Bool", got, want)
			}
		case 8:
			n := i % 9
			if got, want := r.Perm(n), ref.Perm(n); !slices.Equal(got, want) {
				fail(i, "Perm", got, want)
			}
		case 9:
			if got, want := r.ExponentialDuration(time.Second), time.Duration(ref.ExpFloat64()*float64(time.Second)); got != want {
				fail(i, "ExponentialDuration", got, want)
			}
		case 10:
			if got, want := r.LogNormal(0, 1), math.Exp(ref.NormFloat64()); math.Float64bits(got) != math.Float64bits(want) {
				fail(i, "LogNormal", got, want)
			}
		case 11:
			if got, want := r.Uniform(-4, 4), -4+8*ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
				fail(i, "Uniform", got, want)
			}
		}
	}
}

// Every Rand method must reproduce math/rand's stream for the seed, on
// both sides of promotion and past the register's wraparound (draw
// rngLen), for the seeds rngSource normalises specially and for
// thousands of spread ones.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range exactSeeds() {
		matchDraws(t, seed, 2000)
	}
	spread := spreadSeeds(3000)
	if testing.Short() {
		spread = spread[:300]
	}
	for i, seed := range spread {
		// Lengths from 0 to 700 steps: streams that stay lazy, end just
		// past promotion, or run through the wraparound.
		matchDraws(t, seed, i%701)
	}
}

// Fork seeds the child from the parent's next Int63, so a chain of
// forks is a chain of math/rand streams.
func TestRandForkChainMatchesMathRand(t *testing.T) {
	for _, seed := range append(exactSeeds(), spreadSeeds(200)...) {
		r := NewRand(seed)
		ref := rand.New(rand.NewSource(seed))
		for depth := 0; depth < 6; depth++ {
			// Draw a depth-dependent number of values first, so forks
			// come from lazy and from promoted parents.
			for i := 0; i < depth*30; i++ {
				if got, want := r.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d depth %d draw %d: %v, math/rand gives %v", seed, depth, i, got, want)
				}
			}
			r = r.Fork()
			ref = rand.New(rand.NewSource(ref.Int63()))
		}
		for i := 0; i < 700; i++ {
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: fork chain draw %d = %d, math/rand gives %d", seed, i, got, want)
			}
		}
	}
}

// Seed restarts a stream, lazy or promoted, at the seed's first draw.
func TestRandSeedRestarts(t *testing.T) {
	r := NewRand(7)
	for _, draws := range []int{0, 3, lazyDraws + 10, 2 * rngLen} {
		for i := 0; i < draws; i++ {
			r.Float64()
		}
		r.Seed(-99)
		ref := NewRand(-99)
		for i := 0; i < 3*lazyDraws; i++ {
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("after %d draws, reseeded draw %d = %d, want %d", draws, i, got, want)
			}
		}
	}
}

// A stream that draws no more than lazyDraws values never allocates its
// 607-word register; the first draw past it promotes.
func TestRandShortStreamStaysLazy(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < lazyDraws; i++ {
		r.Float64()
	}
	if r.vec != nil {
		t.Fatalf("stream promoted after %d draws, want lazy through %d", lazyDraws, lazyDraws)
	}
	r.Float64()
	if r.vec == nil {
		t.Fatalf("stream still lazy after %d draws", lazyDraws+1)
	}
	// A lazy stream costs two allocations: the Rand and its math/rand
	// distribution wrapper. A full register would be a third.
	seed := int64(0)
	avg := testing.AllocsPerRun(200, func() {
		seed++
		s := NewRand(seed)
		for i := 0; i < lazyDraws; i++ {
			s.Float64()
		}
	})
	if avg != 2 {
		t.Fatalf("seeding plus %d draws allocates %.1f times, want 2", lazyDraws, avg)
	}
	// Forking reads the parent's source directly, without building its
	// distribution wrapper.
	parent := NewRand(1)
	parent.Fork()
	if parent.src != nil {
		t.Fatal("Fork built the parent's math/rand wrapper")
	}
}

// Promoted draws are allocation-free.
func TestRandSteadyDrawAllocFree(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 2*rngLen; i++ {
		r.Float64()
	}
	if avg := testing.AllocsPerRun(2000, func() { r.Float64() }); avg != 0 {
		t.Fatalf("steady-state draw allocates %.1f times, want 0", avg)
	}
}

var benchSink float64

// BenchmarkRandSeedDraw8 is the typical stream of a population run:
// seeded, then a handful of draws.
func BenchmarkRandSeedDraw8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRand(int64(i))
		for j := 0; j < 8; j++ {
			benchSink += r.Float64()
		}
	}
}

// BenchmarkRandSteadyDraw is one draw of a long-lived, promoted stream.
func BenchmarkRandSteadyDraw(b *testing.B) {
	b.ReportAllocs()
	r := NewRand(1)
	for i := 0; i < 2*rngLen; i++ {
		r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += r.Float64()
	}
}
