package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyGeneratorWellFormed: any valid profile yields line-aligned,
// in-footprint addresses with a strictly nondecreasing instruction clock.
func TestPropertyGeneratorWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := CloudSuite()[int(uint64(seed)%10)]
		base.FootprintBytes = (64 + rng.Int63n(512)) << 20
		base.HotFraction = 0.05 + rng.Float64()*0.4
		base.HotBias = rng.Float64()
		base.UntouchedFraction = rng.Float64() * 0.9
		if err := base.Validate(); err != nil {
			t.Logf("seed %d: generated invalid profile: %v", seed, err)
			return false
		}
		g, err := NewGenerator(base, seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		var prevInstr int64
		for i := 0; i < 5000; i++ {
			a := g.Next()
			if a.Addr < 0 || a.Addr >= base.FootprintBytes || a.Addr%LineBytes != 0 {
				t.Logf("seed %d: bad address %d", seed, a.Addr)
				return false
			}
			if a.Instr < prevInstr {
				t.Logf("seed %d: instruction clock went backwards", seed)
				return false
			}
			prevInstr = a.Instr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUntouchedNeverAccessed: segments outside the touchable set
// receive zero accesses for any profile and seed.
func TestPropertyUntouchedNeverAccessed(t *testing.T) {
	f := func(seed int64) bool {
		p, _ := ProfileByName("data-caching")
		p.FootprintBytes = 256 << 20
		p.UntouchedFraction = 0.5
		g := MustGenerator(p, seed)

		touchable := map[int64]bool{}
		for _, s := range g.touchable {
			touchable[s] = true
		}
		for i := 0; i < 50_000; i++ {
			a := g.Next()
			if !touchable[a.Addr/SegmentBytes] {
				t.Logf("seed %d: untouched segment %d accessed", seed, a.Addr/SegmentBytes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMixedClockMonotonic: merged streams keep a nondecreasing
// instruction clock and stay within the combined footprint.
func TestPropertyMixedClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		ps := CloudSuite()[:4]
		for i := range ps {
			ps[i].FootprintBytes = 128 << 20
		}
		m := MustMixed(ps, seed)
		var prev int64
		for i := 0; i < 20_000; i++ {
			a := m.Next()
			if a.Instr < prev {
				return false
			}
			prev = a.Instr
			if a.Addr < 0 || a.Addr >= m.TotalFootprint() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRunsStayInFootprint: a run never leaves its segment, so no
// access leaves the footprint at any valid stride. Long runs at wide strides
// once walked up to 22.9 MB past an 8 MiB footprint.
func TestPropertyRunsStayInFootprint(t *testing.T) {
	for _, stride := range []int64{LineBytes, 4 << 10, 64 << 10, 1 << 20, SegmentBytes} {
		p, _ := ProfileByName("media-streaming")
		p.FootprintBytes = 8 << 20
		p.RunStride = stride
		g := MustGenerator(p, 1)
		for i := 0; i < 100_000; i++ {
			var a Access
			if i%2 == 0 {
				a = g.Next()
			} else {
				a = g.NextRaw()
			}
			if a.Addr < 0 || a.Addr >= p.FootprintBytes {
				t.Fatalf("stride %d: access %d at %d outside footprint %d", stride, i, a.Addr, p.FootprintBytes)
			}
		}
	}
}
