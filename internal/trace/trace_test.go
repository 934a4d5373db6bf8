package trace

import (
	"math"
	"math/rand"
	"testing"

	"dtl/internal/cache"
)

func TestCloudSuiteProfilesValid(t *testing.T) {
	ps := CloudSuite()
	if len(ps) != 10 {
		t.Fatalf("profiles = %d, want 10", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestTable4MAPKIValues(t *testing.T) {
	want := map[string]float64{
		"data-analytics":      1.9,
		"data-caching":        1.5,
		"data-serving":        4.2,
		"django-workload":     0.8,
		"fb-oss-performance":  3.6,
		"graph-analytics":     6.5,
		"in-memory-analytics": 2.5,
		"media-streaming":     4.6,
		"web-search":          0.7,
		"web-serving":         0.7,
	}
	for name, m := range want {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("missing profile %s", name)
		}
		if p.MAPKI != m {
			t.Errorf("%s MAPKI = %v, want %v", name, p.MAPKI, m)
		}
	}
	if _, err := ProfileByName("no-such"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestProfileValidateRejects(t *testing.T) {
	base, _ := ProfileByName("web-search")
	mutations := []func(*Profile){
		func(p *Profile) { p.MAPKI = 0 },
		func(p *Profile) { p.FootprintBytes = 100 },
		func(p *Profile) { p.HotFraction = 0 },
		func(p *Profile) { p.HotFraction = 1.5 },
		func(p *Profile) { p.HotBias = -0.1 },
		func(p *Profile) { p.RunLength = 0.5 },
		func(p *Profile) { p.RunStride = 0 },
		func(p *Profile) { p.RunStride = SegmentBytes + LineBytes },
		func(p *Profile) { p.WriteFraction = 2 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByName("graph-analytics")
	g1 := MustGenerator(p, 42)
	g2 := MustGenerator(p, 42)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a, b)
		}
	}
	g3 := MustGenerator(p, 43)
	same := 0
	g4 := MustGenerator(p, 42)
	for i := 0; i < 1000; i++ {
		if g3.Next() == g4.Next() {
			same++
		}
	}
	if same > 500 {
		t.Fatalf("different seeds produced %d/1000 identical accesses", same)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	p, _ := ProfileByName("data-serving")
	p.FootprintBytes = 256 << 20
	g := MustGenerator(p, 1)
	for i := 0; i < 100000; i++ {
		a := g.Next()
		if a.Addr < 0 || a.Addr >= p.FootprintBytes {
			t.Fatalf("address %d outside footprint %d", a.Addr, p.FootprintBytes)
		}
		if a.Addr%LineBytes != 0 {
			t.Fatalf("address %d not line aligned", a.Addr)
		}
	}
}

func TestInstructionRateMatchesMAPKI(t *testing.T) {
	for _, name := range []string{"web-search", "graph-analytics", "media-streaming"} {
		p, _ := ProfileByName(name)
		p.FootprintBytes = 512 << 20
		g := MustGenerator(p, 5)
		const n = 200000
		for i := 0; i < n; i++ {
			g.Next()
		}
		gotMAPKI := float64(n) / (float64(g.Instr()) / 1000.0)
		if math.Abs(gotMAPKI-p.MAPKI)/p.MAPKI > 0.02 {
			t.Errorf("%s: generated MAPKI %v, want %v", name, gotMAPKI, p.MAPKI)
		}
	}
}

func TestPostCacheMAPKIThroughCache(t *testing.T) {
	// NextRaw filtered through the Table 3 hierarchy should land near the
	// profile's target MAPKI (the Table 4 reproduction path).
	if testing.Short() {
		t.Skip("cache calibration is slow")
	}
	for _, name := range []string{"data-serving", "web-search"} {
		p, _ := ProfileByName(name)
		p.FootprintBytes = 1 << 30
		g := MustGenerator(p, 11)
		h := cache.MustTable3()
		var memAccesses int64
		const n = 2_000_000
		for i := 0; i < n; i++ {
			a := g.NextRaw()
			memAccesses += int64(len(h.Access(a.Addr, a.Write)))
		}
		mapki := float64(memAccesses) / (float64(g.Instr()) / 1000.0)
		if mapki < p.MAPKI*0.5 || mapki > p.MAPKI*2.0 {
			t.Errorf("%s: post-cache MAPKI %.2f, want within 2x of %.2f", name, mapki, p.MAPKI)
		}
	}
}

func TestStreamingProfileHasNarrowStrides(t *testing.T) {
	ms, _ := ProfileByName("media-streaming")
	ms.FootprintBytes = 512 << 20
	g := MustGenerator(ms, 3)
	dist := StrideDistribution(g.Next, 100000)
	if dist[0] < 0.5 {
		t.Errorf("media-streaming <4KB stride share = %.2f, want > 0.5", dist[0])
	}

	ga, _ := ProfileByName("graph-analytics")
	ga.FootprintBytes = 512 << 20
	g2 := MustGenerator(ga, 3)
	dist2 := StrideDistribution(g2.Next, 100000)
	last := len(dist2) - 1
	if dist2[last] < 0.5 {
		t.Errorf("graph-analytics >=4MB stride share = %.2f, want > 0.5", dist2[last])
	}
}

func TestMixingWidensStrides(t *testing.T) {
	// Fig. 9: mixing narrow-stride applications makes >=4MB strides dominate.
	ms, _ := ProfileByName("media-streaming")
	ms.FootprintBytes = 256 << 20
	single := MustGenerator(ms, 9)
	singleDist := StrideDistribution(single.Next, 100000)

	profiles := make([]Profile, 8)
	for i := range profiles {
		profiles[i] = ms
	}
	mixed := MustMixed(profiles, 9)
	mixedDist := StrideDistribution(mixed.Next, 100000)

	last := len(singleDist) - 1
	if mixedDist[last] <= singleDist[last] {
		t.Errorf("mixing did not widen strides: single %.2f, mixed %.2f",
			singleDist[last], mixedDist[last])
	}
	if mixedDist[last] < 0.6 {
		t.Errorf("mixed >=4MB share %.2f, want > 0.6 (paper: 89.3%% for 8-mix)", mixedDist[last])
	}
}

func TestMixedAddressesWithinComponentFootprints(t *testing.T) {
	p1, _ := ProfileByName("web-search")
	p1.FootprintBytes = 128 << 20
	p2, _ := ProfileByName("data-caching")
	p2.FootprintBytes = 256 << 20
	m := MustMixed([]Profile{p1, p2}, 17)
	if m.TotalFootprint() != p1.FootprintBytes+p2.FootprintBytes {
		t.Fatalf("total footprint = %d", m.TotalFootprint())
	}
	if m.Components() != 2 {
		t.Fatalf("components = %d", m.Components())
	}
	for i := 0; i < 50000; i++ {
		a := m.Next()
		if a.Addr < 0 || a.Addr >= m.TotalFootprint() {
			t.Fatalf("mixed address %d outside total footprint", a.Addr)
		}
	}
}

func TestMixedRejectsEmpty(t *testing.T) {
	if _, err := NewMixed(nil, 1); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestColdFraction2MBGreaterThan4MB(t *testing.T) {
	// Fig. 10: finer remapping granularity exposes more cold segments.
	p, _ := ProfileByName("data-analytics")
	p.FootprintBytes = 4 << 30
	mk := func() func() Access { return MustGenerator(p, 21).Next }
	const n = 800000
	const threshold = 10_000_000
	cold2 := ColdFraction(mk(), n, p.FootprintBytes, 2<<20, threshold)
	cold4 := ColdFraction(mk(), n, p.FootprintBytes, 4<<20, threshold)
	if cold2 <= cold4 {
		t.Errorf("cold fraction 2MB (%.3f) should exceed 4MB (%.3f)", cold2, cold4)
	}
	if cold2 < 0.35 || cold2 > 0.85 {
		t.Errorf("2MB cold fraction %.3f outside plausible band (paper: 0.615)", cold2)
	}
}

func TestStrideDistributionSumsToOne(t *testing.T) {
	p, _ := ProfileByName("data-caching")
	p.FootprintBytes = 256 << 20
	g := MustGenerator(p, 2)
	dist := StrideDistribution(g.Next, 10000)
	var sum float64
	for _, v := range dist {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
	if len(dist) != len(StrideBucketLabels()) {
		t.Fatalf("labels/buckets mismatch: %d vs %d", len(dist), len(StrideBucketLabels()))
	}
}

func TestColdFractionEmptyStream(t *testing.T) {
	calls := 0
	next := func() Access { calls++; return Access{} }
	if got := ColdFraction(next, 0, 0, 2<<20, 1000); got != 0 {
		t.Fatalf("empty stream cold fraction = %v", got)
	}
	dist := StrideDistribution(next, 0)
	for _, v := range dist {
		if v != 0 {
			t.Fatalf("empty stride distribution = %v", dist)
		}
	}
}

// TestMixedPickMatchesSequential: counting bounds picks the component the
// sequential weight subtraction picks, at random points, at every bound and
// one ulp on either side of it, for the replay mixes and random weights.
func TestMixedPickMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var mixes []*Mixed
	mixes = append(mixes, ctrlReplayMix(1), MustMixed(CloudSuite()[:6], 3), MustMixed(CloudSuite()[:1], 1))
	for k := 0; k < 20; k++ {
		ps := CloudSuite()[:2+rng.Intn(8)]
		for i := range ps {
			ps[i].FootprintBytes = 64 << 20
			ps[i].MAPKI = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		mixes = append(mixes, MustMixed(ps, int64(k)))
	}
	for mi, m := range mixes {
		xs := []float64{0, m.wsum, math.Nextafter(m.wsum, 0), math.Inf(1)}
		for _, b := range m.bounds {
			xs = append(xs, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
		}
		for i := 0; i < 10000; i++ {
			xs = append(xs, rng.Float64()*m.wsum)
		}
		for _, x := range xs {
			if got, want := m.pick(x), m.pickSeq(x); got != want {
				t.Fatalf("mix %d (weights %v): pick(%v) = %d, want %d", mi, m.weight, x, got, want)
			}
		}
	}
}
