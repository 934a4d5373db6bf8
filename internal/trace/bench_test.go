package trace

import "testing"

// BenchmarkMixedNext measures one access of the controller replay's merged
// stream (ten CloudSuite profiles at 16 GiB each). It must stay allocation
// free.
func BenchmarkMixedNext(b *testing.B) {
	m := ctrlReplayMix(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.Next().Addr
	}
	benchSink = sink
}

// BenchmarkNewGenerator measures building one VM's generator at the 64 GiB
// footprint the rack placement hands out: the hot-set permutation over
// 32,768 segments dominates.
func BenchmarkNewGenerator(b *testing.B) {
	p, _ := ProfileByName("data-serving")
	p.FootprintBytes = 64 << 30
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += int64(len(MustGenerator(p, int64(i)).touchable))
	}
	benchSink = sink
}

var benchSink int64
