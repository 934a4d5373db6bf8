package memctrl

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/trace"
)

// BenchmarkControllerAccess measures one request of fig2's 8-rank leg: a
// 4-channel × 8-rank × 32 GiB device fed the rank-interleaved merged stream
// of all ten CloudSuite profiles at 16 GiB each, paced as the replay paces
// it. The stream is generated ahead and replayed in epochs, each shifted
// past the previous one's last arrival so arrivals never go backwards. It
// must stay allocation free.
func BenchmarkControllerAccess(b *testing.B) {
	g := dram.Default1TB()
	dev := dram.MustDevice(g, dram.DefaultPowerModel(), dram.DefaultTiming())
	c := New(dev)
	codec := dev.Codec()
	ps := trace.CloudSuite()
	for i := range ps {
		ps[i].FootprintBytes = 16 << 30
	}
	mix := trace.MustMixed(ps, 1)
	reqs := make([]Request, 1<<16)
	for i := range reqs {
		a := mix.Next()
		reqs[i] = Request{
			Addr:   codec.Compose(codec.RankInterleavedDSN(a.Addr/g.SegmentBytes), a.Addr%g.SegmentBytes),
			Write:  a.Write,
			Arrive: sim.Time(float64(a.Instr) * 0.5 / 2), // 2 GHz, IPC 1, fig2's pacing
		}
	}
	epoch := reqs[len(reqs)-1].Arrive + 1
	b.ReportAllocs()
	b.ResetTimer()
	var sink sim.Time
	var shift sim.Time
	for i := 0; i < b.N; i++ {
		j := i % len(reqs)
		if j == 0 && i > 0 {
			shift += epoch
		}
		r := reqs[j]
		r.Arrive += shift
		sink += c.Access(r).Done
	}
	benchSink = sink
}

var benchSink sim.Time
