package simtime

import (
	"math"
	"math/rand"
	"time"
)

// Rand wraps a seeded deterministic source with the distributions the
// simulator needs. All stochastic behaviour in a scenario must flow from a
// single Rand so that runs are reproducible from the seed alone.
//
// Rand is itself the rand.Source64 under its distributions, and it draws
// exactly math/rand's stream for the seed: rand.New(r) turns its Int63s
// into Float64/NormFloat64/ExpFloat64/Int63n/Perm values bit for bit as
// rand.New(rand.NewSource(seed)) would. It does so without seeding a
// 607-word state array up front. Population-scale scenarios fork tens of
// thousands of streams, and almost all of them draw fewer than lazyDraws
// values, many none at all. math/rand's lagged-Fibonacci generator reads
// only two seeded words per draw for its first 273 draws, and each
// seeded word is a closed form of the seed (see word). So a short stream
// costs a few multiplications per draw and never allocates its state:
// laziness removes the seeding cost, it cannot move a value. A stream
// that keeps drawing is promoted once, past lazyDraws, to the full
// register and math/rand's own update loop.
//
// The zero Rand is not a stream; use NewRand.
type Rand struct {
	src  *rand.Rand     // distributions over r's own Int63; nil until the first one
	vec  *[rngLen]int64 // feedback register; nil while the stream is lazy
	seed uint32         // seed normalised as rngSource.Seed does: x₀ of its chain
	n    int32          // draws taken while lazy
	tap  int32          // register indices once promoted, as in rngSource
	feed int32
}

// The constants of math/rand's generator (math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// lazyDraws is how many values a stream draws before it is promoted
	// to the full register. A lazy draw is two closed-form words, exact
	// only while no draw reads a word an earlier draw wrote (the first
	// rngTap draws); past a few dozen draws the register is cheaper.
	lazyDraws = 64
)

// rngPow[k] = 48271ᵏ mod (2³¹−1) for every k the seeding chain reaches:
// word i of the register reads x₂₁₊₃ᵢ..x₂₃₊₃ᵢ, so k runs to 3·606+23.
var rngPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 48271 % int32max
	}
	return p
}()

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets r to the stream NewRand(seed) draws. It normalises the
// seed exactly as math/rand's rngSource.Seed does.
func (r *Rand) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*r = Rand{seed: uint32(seed)}
}

// Int63 returns a non-negative pseudo-random 63-bit integer, the value
// math/rand's source would return at this point of the stream.
//
//mmlint:noalloc
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value, the value math/rand's
// source would return at this point of the stream.
//
// rngSource starts with tap = 0 and feed = rngLen-rngTap, and each draw
// steps both back by one and returns vec[feed] += vec[tap]. So draw n
// (from 1) reads word rngLen-rngTap-n at feed and word rngLen-n at tap,
// and the first word it reads that an earlier draw wrote is at draw
// rngTap+1. Until promotion, a draw is therefore the sum of two seeded
// words.
//
//mmlint:noalloc
func (r *Rand) Uint64() uint64 {
	if r.vec == nil {
		if r.n < lazyDraws {
			r.n++
			return uint64(r.word(rngLen-rngTap-int(r.n)) + r.word(rngLen-int(r.n)))
		}
		r.promote()
	}
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// word returns word i of the register as rngSource.Seed writes it:
// three consecutive states of the Park–Miller chain x[k+1] = 48271·x[k]
// mod (2³¹−1), packed at bits 40, 20 and 0 and XORed with the cooked
// table. Seed discards x₁..x₂₀, so word i reads x₂₁₊₃ᵢ, x₂₂₊₃ᵢ, x₂₃₊₃ᵢ.
//
//mmlint:noalloc
func (r *Rand) word(i int) int64 {
	k := 21 + 3*i
	return int64(r.x(k)<<40^r.x(k+1)<<20^r.x(k+2)) ^ rngCooked[i]
}

// x returns xₖ = seed·48271ᵏ mod (2³¹−1), the chain's k-th state, from
// the power table with two Mersenne folds instead of k serial steps.
// Both factors are below 2³¹, so the product fits in 62 bits.
//
//mmlint:noalloc
func (r *Rand) x(k int) uint64 {
	p := uint64(r.seed) * rngPow[k]
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// promote builds the full register, replays the feed writes of the
// lazy draws taken so far, and leaves tap and feed where rngSource's
// would be. It is the only place a stream allocates its state.
func (r *Rand) promote() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = r.word(i)
	}
	n := int(r.n)
	for m := 1; m <= n; m++ {
		vec[rngLen-rngTap-m] += vec[rngLen-m]
	}
	r.vec = vec
	r.tap = int32(rngLen - n)
	r.feed = int32(rngLen - rngTap - n)
}

// source returns the distributions over r, built on first use.
func (r *Rand) source() *rand.Rand {
	if r.src == nil {
		r.src = rand.New(r)
	}
	return r.src
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.source().Float64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return r.source().Intn(n) }

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.source().Float64()
}

// UniformDuration returns a uniform duration in [lo, hi).
func (r *Rand) UniformDuration(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.source().Int63n(int64(hi-lo)))
}

// Exponential returns an exponentially distributed value with the given
// mean. It is the inter-arrival law for Poisson processes (session
// arrivals, data packet gaps).
func (r *Rand) Exponential(mean float64) float64 {
	return r.source().ExpFloat64() * mean
}

// ExponentialDuration returns an exponentially distributed duration with
// the given mean.
func (r *Rand) ExponentialDuration(mean time.Duration) time.Duration {
	return time.Duration(r.source().ExpFloat64() * float64(mean))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.source().NormFloat64()
}

// LogNormal returns a log-normally distributed value parameterised by the
// mean and stddev of the underlying normal. Used for shadowing in dB and
// heavy-tailed session lengths.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.source().Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.source().Perm(n) }

// Fork derives an independent generator from this one. Subsystems that
// consume randomness at data-dependent rates (e.g. per-link loss) use forks
// so that changing one subsystem's draw count does not perturb another's.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}
