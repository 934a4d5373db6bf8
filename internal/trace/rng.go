package trace

import "math/rand"

// rng reproduces, draw for draw, the value stream of
// rand.New(rand.NewSource(seed)) for the methods this package calls. It is a
// concrete copy of math/rand's additive lagged-Fibonacci source
// (x[n] = x[n-607] + x[n-273] mod 2^64) so that the hot path pays neither
// the rand.Source interface dispatch nor a pointer hop to the source. Go 1
// compatibility freezes math/rand's seeded stream, so the copy stays exact
// on every toolchain; TestRNGMatchesMathRand compares the two directly.
type rng struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// seed seeds r exactly as rand.NewSource(seed) seeds its source: a
// Lehmer chain from the seed gives each register word, XORed with
// math/rand's table of cooked values.
func (r *rng) seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	seedWords(seed, &r.vec)
	for i := range r.vec {
		r.vec[i] ^= rngCooked[i]
	}
}

// seedWords fills w with the seed-derived register words of math/rand's
// rngSource.Seed, before they are XORed with the cooked table.
func seedWords(seed int64, w *[rngLen]int64) {
	const int32max = 1<<31 - 1
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := seed
	next := func() int64 { // x = 48271·x mod (2^31 - 1)
		x = x * 48271 % int32max
		return x
	}
	for i := -20; i < rngLen; i++ {
		u := next()
		if i >= 0 {
			u <<= 40
			u ^= next() << 20
			u ^= next()
			w[i] = u
		}
	}
}

// rngCooked is math/rand's private table of cooked register values. It is
// recovered once from a real source instead of copied: the first rngLen
// outputs of a seeded source overwrite each register slot once and bring
// both indices back to their start, so afterwards the register holds
// exactly those outputs; undoing the draws newest first
// (x[s-607] = x[s] - x[s-273]) gives the register as seeding left it, and
// XORing out the seed's own words leaves the table.
var rngCooked = func() *[rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	r := rng{feed: rngLen - rngTap}
	for i := 0; i < rngLen; i++ {
		r.step(-1)
		r.vec[r.feed] = int64(src.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		r.vec[r.feed] -= r.vec[r.tap]
		r.step(+1)
	}
	var w [rngLen]int64
	seedWords(1, &w)
	for i := range r.vec {
		r.vec[i] ^= w[i]
	}
	return &r.vec
}()

// step moves both register indices by d (±1), wrapping as uint64 does.
func (r *rng) step(d int) {
	r.tap = (r.tap + d + rngLen) % rngLen
	r.feed = (r.feed + d + rngLen) % rngLen
}

func (r *rng) uint64() uint64 {
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

// Int63 is rand.Rand.Int63.
func (r *rng) Int63() int64 { return int64(r.uint64() & rngMask) }

// Int31 is rand.Rand.Int31.
func (r *rng) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 is rand.Rand.Float64, including its resample of the rare draw
// that rounds to 1.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n. The rejection bound max = 2^63-1 - 2^63 mod n
// is at least 2^63-n, so a draw at or below that accepts without the
// 64-bit modulo that computes max.
func (r *rng) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	v := r.Int63()
	if v > rngMask-n+1 {
		max := int64(rngMask - (1<<63)%uint64(n))
		for v > max {
			v = r.Int63()
		}
	}
	return v % n
}

// Int31n is rand.Rand.Int31n, with the same early accept as Int63n.
func (r *rng) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	v := r.Int31()
	if int64(v) > 1<<31-int64(n) {
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		for v > max {
			v = r.Int31()
		}
	}
	return v % n
}

// Intn is rand.Rand.Intn.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Perm is rand.Rand.Perm.
func (r *rng) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
