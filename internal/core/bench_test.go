package core

import (
	"math/rand"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

func benchDTL(b *testing.B) *DTL {
	b.Helper()
	d, err := New(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSMCHit measures the translation fast path: an access whose HSN is
// resident in the L1 segment mapping cache. This is the per-access cost the
// paper's Figure 10 latency overhead rides on, so it must stay allocation
// free.
func BenchmarkSMCHit(b *testing.B) {
	d := benchDTL(b)
	a, err := d.AllocateVM(1, 0, 16*dram.MiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	base := a.AUBases[0]
	now := sim.Time(0)
	if _, err := d.Access(base, false, now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10
		if _, err := d.Access(base, false, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMCMissWalk measures the full miss path: both SMC levels miss and
// the access walks the DRAM-resident segment mapping table (two SRAM hops
// plus the dense-table load), then refills both cache levels.
func BenchmarkSMCMissWalk(b *testing.B) {
	d := benchDTL(b)
	a, err := d.AllocateVM(1, 0, 16*dram.MiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	base := a.AUBases[0]
	hsn := d.codec.HostSegmentOf(base)
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.smc.invalidate(hsn)
		now += 10
		if _, err := d.Access(base, false, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapMigration measures one hotness-engine transposition between
// two live segments: mapping-table updates, SMC invalidations, and the
// migration window enqueue/complete cycle (which must recycle its windows
// through the migrator's pool rather than allocate).
func BenchmarkSwapMigration(b *testing.B) {
	d := benchDTL(b)
	if _, err := d.AllocateVM(1, 0, 64*dram.MiB, 0); err != nil {
		b.Fatal(err)
	}
	// Two live segments on channel 0.
	var s1, s2 dram.DSN
	found := 0
	for dsn, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		if l := d.codec.DecodeDSN(dram.DSN(dsn)); l.Channel != 0 {
			continue
		}
		if found == 0 {
			s1 = dram.DSN(dsn)
		} else {
			s2 = dram.DSN(dsn)
			break
		}
		found++
	}
	if s1 == s2 {
		b.Fatal("could not find two live segments on channel 0")
	}
	now := sim.Time(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.hot.applySwap(s1, s2, now)
		now = d.mig.busyUntil[0] + 1
		d.mig.completeUpTo(now)
	}
}

// BenchmarkAccessPathInflight measures the access path in the state the
// self-refresh replays run in: a 64 GiB device (fig14's geometry) with
// about 400 hotness swap windows in flight, 30% writes, and a stream over
// 1024 segments, 16x the L1 SMC, so the L1 is full and thrashing. Before
// each access the queue is topped back up to 400 windows with swaps of
// live segment pairs on one channel, so the in-flight count holds however
// long the benchmark runs. BenchmarkAccessPath runs with no window in
// flight and so cannot see a per-window cost.
func BenchmarkAccessPathInflight(b *testing.B) {
	const (
		inflight = 400
		streamN  = 1 << 14
	)
	cfg := DefaultConfig(dram.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       2 * dram.GiB,
	})
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a, err := d.AllocateVM(1, 0, 8*dram.GiB, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	segBytes := cfg.Geometry.SegmentBytes
	segs := make([]dram.HPA, 1024)
	for i := range segs {
		au := a.AUBases[rng.Intn(len(a.AUBases))]
		segs[i] = au + dram.HPA(rng.Int63n(cfg.AUBytes/segBytes)*segBytes)
	}
	addrs := make([]dram.HPA, streamN)
	writes := make([]bool, streamN)
	for i := range addrs {
		addrs[i] = segs[rng.Intn(len(segs))] + dram.HPA(rng.Int63n(segBytes)&^63)
		writes[i] = rng.Intn(10) < 3
	}
	// Swap partners: random pairs of live segments sharing a channel. A
	// swap keeps both slots live, so the pairs stay valid.
	live := make([][]dram.DSN, cfg.Geometry.Channels)
	for dsn, hsn := range d.revMap {
		if hsn != dsnFree {
			ch := d.codec.DecodeDSN(dram.DSN(dsn)).Channel
			live[ch] = append(live[ch], dram.DSN(dsn))
		}
	}
	type pair struct{ a, b dram.DSN }
	pairs := make([]pair, 4096)
	for i := range pairs {
		ch := live[rng.Intn(len(live))]
		p := pair{ch[rng.Intn(len(ch))], ch[rng.Intn(len(ch))]}
		for p.a == p.b {
			p.b = ch[rng.Intn(len(ch))]
		}
		pairs[i] = p
	}
	mig := d.Migrator()
	next := 0
	now := sim.Time(0)
	step := func(i int) {
		for mig.Outstanding() < inflight {
			p := pairs[next%len(pairs)]
			next++
			d.hot.applySwap(p.a, p.b, now)
		}
		if _, err := d.Access(addrs[i%streamN], writes[i%streamN], now); err != nil {
			b.Fatal(err)
		}
		now += 2
	}
	for i := 0; i < streamN; i++ { // warm the SMC, the window pool and slices
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkDeallocateDrain measures the VM-release control path in the
// state the rack and fig12 runs are in: fig12's 384 GiB device (4 ch × 8 ×
// 12 GiB ranks) holding forty 2 GiB VMs over 16 hosts and two 64 GiB VMs,
// a ledger attached, and a warm, full SMC. Each op deallocates one of the
// large VMs, which powers a rank group down and drains 8192 live segments
// (16 GiB) of the other VMs into the remaining ranks, then allocates it
// again, which wakes a group back up. Between ops, untimed, virtual time
// advances five minutes so the drain copies retire, and 2048 reads over
// every VM refill the SMC.
func BenchmarkDeallocateDrain(b *testing.B) {
	const (
		small, smallBytes = 40, 2 * dram.GiB
		large, largeBytes = 2, 64 * dram.GiB
	)
	d, err := New(DefaultConfig(dram.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       12 * dram.GiB,
	}))
	if err != nil {
		b.Fatal(err)
	}
	d.StartLedger()
	bases := map[VMID][]dram.HPA{}
	alloc := func(vm VMID, host HostID, bytes int64, now sim.Time) {
		a, err := d.AllocateVM(vm, host, bytes, now)
		if err != nil {
			b.Fatal(err)
		}
		bases[vm] = a.AUBases
	}
	for vm := VMID(0); vm < small; vm++ {
		alloc(large+vm, HostID(vm%16), smallBytes, 0)
	}
	for vm := VMID(0); vm < large; vm++ {
		alloc(vm, 0, largeBytes, 0)
	}
	rng := rand.New(rand.NewSource(1))
	now := sim.Time(0)
	warm := func() {
		for i := 0; i < 2048; i++ {
			vm := VMID(rng.Intn(small + large))
			au := bases[vm][rng.Intn(len(bases[vm]))]
			if _, err := d.Access(au+dram.HPA(rng.Int63n(d.cfg.AUBytes)&^63), false, now); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := d.Stats().SegmentsMigrated
		vm := VMID(i % large)
		if err := d.DeallocateVM(vm, now); err != nil {
			b.Fatal(err)
		}
		alloc(vm, 0, largeBytes, now)
		b.StopTimer()
		if moved == d.Stats().SegmentsMigrated {
			b.Fatalf("op %d drained nothing", i)
		}
		now += 5 * sim.Minute
		warm()
		b.StartTimer()
	}
}
