package trace

import (
	"math/rand"
	"testing"
)

// TestRNGMatchesMathRand compares rng with math/rand draw by draw, over
// seeds that reach every branch of the seeding (zero, negative, reduced to
// zero mod 2^31-1, wider than 32 bits) and arguments that reach every
// branch of the bounded draws (power-of-two masks, rejection loops, the
// Int31n/Int63n split of Intn).
func TestRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -7919, 1<<31 - 1, 3 * (1<<31 - 1), 1 << 40, 20231017}
	int63ns := []int64{1, 2, 48, 1 << 20, 1000003, 2<<20 - 4096, 1 << 62, 1<<62 + 1, 1<<62 + 12345, 1<<63 - 1}
	intns := []int{1, 3, 607, 1<<30 + 1, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 1<<62 + 3}
	for _, seed := range seeds {
		var r rng
		r.seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, got, want)
			}
			for _, n := range int63ns {
				if got, want := r.Int63n(n), ref.Int63n(n); got != want {
					t.Fatalf("seed %d: Int63n(%d) draw %d = %d, want %d", seed, n, i, got, want)
				}
			}
			for _, n := range intns {
				if got, want := r.Intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, n, i, got, want)
				}
			}
		}
		for _, n := range []int{0, 1, 40000} {
			got, want := r.Perm(n), ref.Perm(n)
			if len(got) != len(want) {
				t.Fatalf("seed %d: Perm(%d) has %d elements, want %d", seed, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: Perm(%d)[%d] = %d, want %d", seed, n, i, got[i], want[i])
				}
			}
		}
		// The register wraps many times over; the streams must still agree.
		for i := 0; i < 5000; i++ {
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d after Perm = %d, want %d", seed, i, got, want)
			}
		}
	}
}
