package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"dtl/internal/core"
	"dtl/internal/cxl"
	"dtl/internal/dram"
	"dtl/internal/memctrl"
	"dtl/internal/rack"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
	"dtl/internal/trace"
	"dtl/internal/vmtrace"
)

// srStep and ctrlStep are the replays' step lengths in accesses, each a
// few milliseconds of host time. A 4096-access ctrl-replay step lasts about
// 0.65 ms, so its tail measured host interruptions rather than the
// simulator (the step_ms_tail of ten seeds spread by 0.28 of its median).
const (
	srStep   = 4096
	ctrlStep = 1 << 16
)

// gapNs spaces foreground accesses one every 2 ns, the >30 GB/s replay rate
// of the paper's §5.2 (fig14's pacing).
const gapNs = 2

// model holds every simulated value a pass produces. All of it is
// deterministic in the seed: two passes of one seed, traced or not, must
// agree on every field (the digest gate).
type model struct {
	Accesses   int64 // foreground accesses issued
	Placements int64 // VM placements attempted
	Refused    int64 // placements no expander could hold (fails the run)
	LatSumNs   int64 // summed simulated latency of the foreground accesses

	EnergySaving                 float64
	OutstandingSum, OutstandingN int64 // in-flight migration windows, sampled per step
	OutstandingPeak              int64
	SMC                          core.SMCStats
	Walks                        int64
	MigEnqueued, WriteConflicts  int64
	SREnters, PowerDownEvents    int64
	ResidencySR, ResidencyMPSM   float64 // share of rank-time
	RowHits                      int64   // memctrl row hits (controller replay only)
	CrossAccesses, VMMigrations  int64
	LedgerSpans                  int64
	ParkedPeak                   int64 // most expanders parked at once
	CoreAccesses                 int64 // accesses the DTLs counted
}

func (m model) meanLatNs() float64 {
	if m.Accesses == 0 {
		return 0
	}
	return float64(m.LatSumNs) / float64(m.Accesses)
}

func (m *model) sampleOutstanding(n int64) {
	m.OutstandingSum += n
	m.OutstandingN++
	if n > m.OutstandingPeak {
		m.OutstandingPeak = n
	}
}

// addDTL folds one DTL's counters into m.
func (m *model) addDTL(d *core.DTL) {
	s := d.SMCStats()
	m.SMC.L1Hits += s.L1Hits
	m.SMC.L1Misses += s.L1Misses
	m.SMC.L2Hits += s.L2Hits
	m.SMC.L2Misses += s.L2Misses
	st := d.Stats()
	m.Walks += st.MissPathWalks
	m.SREnters += st.SelfRefreshEnters
	m.PowerDownEvents += st.PowerDownEvents
	m.CoreAccesses += st.Accesses
	ms := d.Migrator().Stats()
	m.MigEnqueued += ms.Enqueued
	m.WriteConflicts += ms.WriteConflicts
}

// residency sets the self-refresh and MPSM shares of rank-time from the
// background energy split over rankNs rank-nanoseconds.
func (m *model) residency(pm dram.PowerModel, sr, mpsm, rankNs float64) {
	m.ResidencySR = sr / pm.SelfRefreshPower / rankNs
	m.ResidencyMPSM = mpsm / pm.MPSMPower / rankNs
}

// pass is one workload instance after set-up: run executes the timed
// closed loop, finish applies the correctness gates and state assertions
// and returns the model values and a one-line description of the state
// reached.
type pass interface {
	run(tr *tracer, clk *stepClock) error
	finish() (model, string, error)
}

// workload is one benchmark input family.
type workload struct {
	name  string
	steps int // steps per pass, for pre-sizing
	setup func(seed int64, small bool, tr *tracer) (pass, error)
}

var workloads = []workload{
	{"sr-replay", srAccesses / srStep, setupSRReplay},
	{"rack-churn", int(rackHorizon/vmtrace.Interval) + 1, setupRackChurn},
	{"ctrl-replay", ctrlAccesses / ctrlStep, setupCtrlReplay},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- sr-replay: fig14's 26gib-5grp configuration ----

// srAccesses is fig14's quick horizon (8 ms at one access per 2 ns); the
// first half is the warm-up that fills the SMC and enriches the cold set.
//
// srLayoutSeed seeds the six generators as fig14's default seed does, which
// fixes each application's hot-set layout. The layout decides how many swap
// windows stay in flight (their mean ranged 392–923 over seeds 1–10 when it
// followed --seed), so --seed drives the interleaving of the six streams
// instead, and every seed measures the same amount of work.
const (
	srAccesses      = 4_000_000
	srSmallAccesses = 1_000_000
	srLayoutSeed    = 1
)

type srReplay struct {
	d           *core.DTL
	gens        []*trace.Generator
	bases       []int64   // each application's offset in the VM
	weights     []float64 // MAPKI: faster traffic appears more often
	wsum        float64
	pick        *rand.Rand
	base        dram.HPA
	addrs       []int64 // one step of the stream, generated ahead
	writes      []bool
	n           int
	activeRanks int

	warmStandby, warmSR float64
	m                   model
}

func setupSRReplay(seed int64, small bool, tr *tracer) (pass, error) {
	g := dram.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       2 * dram.GiB,
	}
	c := core.DefaultConfig(g)
	c.ProfilingWindow = 20 * sim.Microsecond
	c.ProfilingThreshold = 100 * sim.Microsecond
	c.ReserveRankGroups = 2
	d, err := core.New(c)
	if err != nil {
		return nil, err
	}
	const allocGiB = 26
	apps := []string{"data-analytics", "data-caching", "data-serving",
		"graph-analytics", "in-memory-analytics", "media-streaming"}
	per := int64(allocGiB / len(apps))
	sr := &srReplay{d: d, pick: rand.New(rand.NewSource(seed))}
	var total int64
	for i, app := range apps {
		p, err := trace.ProfileByName(app)
		if err != nil {
			return nil, err
		}
		size := per
		if i == len(apps)-1 {
			size = allocGiB - total
		}
		p.FootprintBytes = size << 30
		p.HotBias = 0.99
		p.UntouchedFraction = 0.10
		p.WriteFraction = 0.3
		gen, err := trace.NewGenerator(p, srLayoutSeed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		sr.gens = append(sr.gens, gen)
		sr.bases = append(sr.bases, total<<30)
		sr.weights = append(sr.weights, p.MAPKI)
		sr.wsum += p.MAPKI
		total += size
	}
	t0 := tr.begin()
	alloc, err := d.AllocateVM(1, 0, allocGiB<<30, 0)
	tr.end(spCoreAllocate, t0, 1)
	if err != nil {
		return nil, err
	}
	// One VM owns the whole mix, so its AU space must be contiguous for
	// mix addresses to translate with a single base.
	for i := 1; i < len(alloc.AUBases); i++ {
		if alloc.AUBases[i] != alloc.AUBases[i-1]+dram.HPA(c.AUBytes) {
			return nil, errors.New("sr-replay: AU space not contiguous")
		}
	}
	d.Hotness().Enable(0)
	n := srAccesses
	if small {
		n = srSmallAccesses
	}
	sr.base = alloc.AUBases[0]
	sr.addrs = make([]int64, srStep)
	sr.writes = make([]bool, srStep)
	sr.n = n
	sr.activeRanks = d.ActiveRanksPerChannel() * g.Channels
	return sr, nil
}

// next draws the next access of the merged stream: the application is
// picked in proportion to its MAPKI, as trace.Mixed does.
func (p *srReplay) next() (int64, bool) {
	x := p.pick.Float64() * p.wsum
	i := 0
	for ; i < len(p.weights)-1; i++ {
		if x -= p.weights[i]; x < 0 {
			break
		}
	}
	a := p.gens[i].Next()
	return p.bases[i] + a.Addr, a.Write
}

func (p *srReplay) warmup() sim.Time { return sim.Time(p.n/2) * gapNs }

func (p *srReplay) run(tr *tracer, clk *stepClock) error {
	d, dev := p.d, p.d.Device()
	warmup := p.warmup()
	now := sim.Time(0)
	for done := 0; done < p.n; {
		k := min(srStep, p.n-done)
		t0 := tr.begin()
		for j := 0; j < k; j++ {
			p.addrs[j], p.writes[j] = p.next()
		}
		tr.end(spTraceNext, t0, k)
		t0 = tr.begin()
		for j := 0; j < k; j++ {
			res, err := d.Access(p.base+dram.HPA(p.addrs[j]), p.writes[j], now)
			if err != nil {
				return fmt.Errorf("sr-replay: access %d: %w", done+j, err)
			}
			p.m.LatSumNs += int64(res.TotalLat())
			now += gapNs
			if now == warmup {
				dev.AccountUpTo(now)
				p.warmStandby, p.warmSR, _ = dev.BackgroundEnergy()
			}
		}
		tr.end(spCoreAccess, t0, k)
		done += k
		if k == srStep {
			p.m.sampleOutstanding(int64(d.Migrator().Outstanding()))
			clk.step()
		}
	}
	p.m.Accesses = int64(p.n)
	t0 := tr.begin()
	d.Tick(now)
	tr.end(spCoreTick, t0, 1)
	return nil
}

func (p *srReplay) finish() (model, string, error) {
	d, dev := p.d, p.d.Device()
	horizon := sim.Time(p.n) * gapNs
	dev.AccountUpTo(horizon)
	st, sr, mp := dev.BackgroundEnergy()
	// fig14's metric: background saving over the active ranks after
	// warm-up, against keeping them all in standby.
	span := horizon - p.warmup()
	p.m.EnergySaving = 1 - (st-p.warmStandby+sr-p.warmSR)/(float64(p.activeRanks)*float64(span))
	p.m.residency(dev.Power(), sr, mp, float64(d.Config().Geometry.TotalRanks())*float64(horizon))
	p.m.addDTL(d)
	if err := d.CheckInvariants(); err != nil {
		return p.m, "", fmt.Errorf("sr-replay: %w", err)
	}
	if p.m.CoreAccesses != p.m.Accesses {
		return p.m, "", fmt.Errorf("sr-replay: DTL counted %d accesses, the benchmark issued %d", p.m.CoreAccesses, p.m.Accesses)
	}
	state := fmt.Sprintf("outstanding migration windows peak %d mean %.1f, self-refresh entries %d, SMC L1 hit ratio %.4f",
		p.m.OutstandingPeak, float64(p.m.OutstandingSum)/float64(p.m.OutstandingN), p.m.SREnters,
		ratio(p.m.SMC.L1Hits, p.m.SMC.L1Hits+p.m.SMC.L1Misses))
	if p.m.OutstandingPeak == 0 || p.m.SREnters == 0 {
		return p.m, state, fmt.Errorf("sr-replay: did not reach its state (needs outstanding windows > 0 and self-refresh entries > 0): %s", state)
	}
	return p.m, state, nil
}

// ---- rack-churn: the 6-hour VM schedule over a packed 4-expander rack ----

// rack-churn replays one fixed 6-hour schedule of 120 VMs per expander
// (vmtrace seed 1, the rack experiment's quick scale), as a recorded trace
// would be replayed; --seed drives every VM's access stream. The schedule
// sets how many drain copies are queued, and with it the host cost.
const (
	rackExpanders    = 4
	rackHorizon      = 6 * sim.Hour
	rackVMs          = 120 // VMs per expander
	rackBurst        = 96  // accesses per live VM per interval
	rackScheduleSeed = 1
	rackSmallVMs     = 60 // the test-sized schedule
	rackSmallBurst   = 8
)

// rackVM is the benchmark's record of one live VM: its home expander, cached
// AU bases (DTL.VMAddresses allocates, so it is re-read only when
// consolidation moves the VM) and its own access stream.
type rackVM struct {
	id    core.VMID
	x     int
	bases []dram.HPA
	gen   *trace.Generator
}

type rackChurn struct {
	f        *rack.Fabric
	alloc    *rack.Allocator
	led      *telemetry.Ledger
	events   []vmtrace.Event
	seed     int64
	hpas     []dram.HPA // one VM's burst, generated ahead
	writes   []bool
	auBytes  int64
	maxHosts int
	ranksPX  int // ranks per channel

	live []*rackVM // sorted by id: accesses have model side effects, so order is fixed
	m    model
}

func setupRackChurn(seed int64, small bool, tr *tracer) (pass, error) {
	g := dram.Geometry{ // fig12's pdGeometry: 384 GiB per expander
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       12 * dram.GiB,
	}
	ecfg := core.DefaultConfig(g)
	fcfg := rack.DefaultFabricConfig()
	fcfg.Policy = rack.PolicyPack
	f, err := rack.New(rack.Config{Expanders: rackExpanders, Expander: ecfg, Fabric: fcfg})
	if err != nil {
		return nil, err
	}
	led := f.StartLedger()

	var names []string
	for _, p := range trace.CloudSuite() {
		names = append(names, p.Name)
	}
	gen := vmtrace.DefaultGenConfig()
	gen.Seed = rackScheduleSeed
	gen.NumVMs = rackVMs * rackExpanders
	gen.Workloads = names
	gen.Horizon = rackHorizon
	burst := rackBurst
	if small {
		gen.NumVMs = rackSmallVMs * rackExpanders
		burst = rackSmallBurst
	}
	srv := vmtrace.Server{VCPUs: 48 * rackExpanders, MemBytes: rackExpanders * g.TotalBytes()}
	t0 := tr.begin()
	events, _, err := vmtrace.Schedule(vmtrace.Generate(gen), srv, gen.Horizon)
	tr.end(spVmtraceSchedule, t0, 1)
	if err != nil {
		return nil, err
	}
	return &rackChurn{
		f:        f,
		alloc:    rack.NewAllocator(f),
		led:      led,
		events:   events,
		seed:     seed,
		hpas:     make([]dram.HPA, burst),
		writes:   make([]bool, burst),
		auBytes:  ecfg.AUBytes,
		maxHosts: ecfg.MaxHosts,
		ranksPX:  g.RanksPerChannel,
		live:     make([]*rackVM, 0, 256),
	}, nil
}

func (p *rackChurn) indexOf(id core.VMID) int {
	return sort.Search(len(p.live), func(i int) bool { return p.live[i].id >= id })
}

func (p *rackChurn) place(ev vmtrace.VM, t sim.Time, tr *tracer) error {
	id := core.VMID(ev.ID)
	p.m.Placements++
	t0 := tr.begin()
	x, err := p.alloc.Place(id, core.HostID(ev.ID%p.maxHosts), ev.MemBytes, t)
	tr.end(spRackPlace, t0, 1)
	if errors.Is(err, core.ErrOutOfCapacity) {
		p.m.Refused++
	}
	if err != nil {
		return fmt.Errorf("rack-churn: place vm %d: %w", id, err)
	}
	bases, err := p.f.Expander(x).DTL.VMAddresses(id)
	if err != nil {
		return err
	}
	prof, err := trace.ProfileByName(ev.Workload)
	if err != nil {
		return err
	}
	prof.FootprintBytes = ev.MemBytes
	t0 = tr.begin()
	gen, err := trace.NewGenerator(prof, p.seed*1_000_003+int64(id))
	tr.end(spTraceNew, t0, 1)
	if err != nil {
		return err
	}
	i := p.indexOf(id)
	p.live = append(p.live, nil)
	copy(p.live[i+1:], p.live[i:])
	p.live[i] = &rackVM{id: id, x: x, bases: bases, gen: gen}
	return nil
}

func (p *rackChurn) free(id core.VMID, t sim.Time, tr *tracer) error {
	t0 := tr.begin()
	err := p.alloc.Free(id, t)
	tr.end(spRackFree, t0, 1)
	if err != nil {
		return fmt.Errorf("rack-churn: free vm %d: %w", id, err)
	}
	i := p.indexOf(id)
	if i == len(p.live) || p.live[i].id != id {
		return fmt.Errorf("rack-churn: departing vm %d is not live", id)
	}
	p.live = append(p.live[:i], p.live[i+1:]...)
	return nil
}

func (p *rackChurn) run(tr *tracer, clk *stepClock) error {
	ei := 0
	for t := sim.Time(0); t <= rackHorizon; t += vmtrace.Interval {
		for ; ei < len(p.events) && p.events[ei].At <= t; ei++ {
			ev := p.events[ei]
			var err error
			if ev.Depart {
				err = p.free(core.VMID(ev.VM.ID), t, tr)
			} else {
				err = p.place(ev.VM, t, tr)
			}
			if err != nil {
				return err
			}
		}
		now := t
		for _, vm := range p.live {
			t0 := tr.begin()
			for k := range p.hpas {
				a := vm.gen.Next()
				p.hpas[k] = vm.bases[a.Addr/p.auBytes] + dram.HPA(a.Addr%p.auBytes)
				p.writes[k] = a.Write
			}
			tr.end(spTraceNext, t0, len(p.hpas))
			t0 = tr.begin()
			for k, hpa := range p.hpas {
				res, flat, err := p.f.Access(vm.id, vm.x, hpa, p.writes[k], now)
				if err != nil {
					return fmt.Errorf("rack-churn: access vm %d at %v: %w", vm.id, now, err)
				}
				p.m.LatSumNs += int64(res.TotalLat() + flat)
				now += gapNs
			}
			tr.end(spRackAccess, t0, len(p.hpas))
			p.m.Accesses += int64(len(p.hpas))
		}
		t0 := tr.begin()
		moved, err := p.alloc.Consolidate(now)
		tr.end(spRackConsolidate, t0, 1)
		if err != nil {
			return fmt.Errorf("rack-churn: consolidate at %v: %w", now, err)
		}
		if moved > 0 {
			for _, vm := range p.live {
				x, ok := p.alloc.Lookup(vm.id)
				if !ok {
					return fmt.Errorf("rack-churn: live vm %d has no placement", vm.id)
				}
				if x != vm.x {
					if vm.bases, err = p.f.Expander(x).DTL.VMAddresses(vm.id); err != nil {
						return err
					}
					vm.x = x
				}
			}
		}
		var out, parked int64
		for _, e := range p.f.Expanders() {
			out += int64(e.DTL.Migrator().Outstanding())
			if e.DTL.PoweredDownGroups() == p.ranksPX {
				parked++
			}
		}
		p.m.sampleOutstanding(out)
		if parked > p.m.ParkedPeak {
			p.m.ParkedPeak = parked
		}
		clk.step()
	}
	return nil
}

func (p *rackChurn) finish() (model, string, error) {
	f := p.f
	f.AccountUpTo(rackHorizon)
	st, sr, mp := f.BackgroundEnergy()
	pm := f.Expander(0).DTL.Device().Power()
	rankNs := float64(f.TotalRanks()) * float64(rackHorizon)
	p.m.EnergySaving = 1 - (st+sr+mp)/(rankNs*pm.StandbyPower)
	p.m.residency(pm, sr, mp, rankNs)
	for _, e := range f.Expanders() {
		p.m.addDTL(e.DTL)
		p.m.LedgerSpans += e.DTL.Ledger().SpansTotal()
	}
	as := p.alloc.Stats()
	p.m.VMMigrations = as.Migrations
	p.m.CrossAccesses = f.Registry().Counter("rack.fabric.cross_accesses").Value()

	f.FinishAttribution(nil, p.led, rackHorizon)
	p.m.LedgerSpans += p.led.SpansTotal()
	if err := ledgerIdentity(p.led.CauseTotals(), p.m.LatSumNs, as.VerifyLatNs); err != nil {
		return p.m, "", fmt.Errorf("rack-churn: %w", err)
	}
	if err := f.CheckInvariants(); err != nil {
		return p.m, "", fmt.Errorf("rack-churn: %w", err)
	}
	state := fmt.Sprintf("consolidation migrations %d, most expanders parked at once %d of %d, peak outstanding windows %d",
		p.m.VMMigrations, p.m.ParkedPeak, rackExpanders, p.m.OutstandingPeak)
	if p.m.VMMigrations == 0 || p.m.ParkedPeak == 0 {
		return p.m, state, fmt.Errorf("rack-churn: did not reach its state (needs consolidation migrations > 0 and a parked expander): %s", state)
	}
	return p.m, state, nil
}

// ledgerIdentity checks the rack ledger's latency conservation: the four
// access-path causes plus fabric-stall must equal, exactly, the latency
// observed at Fabric.Access plus the allocator's verify probes.
func ledgerIdentity(c [telemetry.NumCauses]telemetry.LedgerCell, observedNs, verifyNs int64) error {
	attributed := c[telemetry.CauseBaseline].LatNs + c[telemetry.CauseSMCMissWalk].LatNs +
		c[telemetry.CauseSelfRefreshWake].LatNs + c[telemetry.CauseDegradedRead].LatNs +
		c[telemetry.CauseFabricStall].LatNs
	if attributed != observedNs+verifyNs {
		return fmt.Errorf("ledger identity broken: attributed latency %d ns != observed %d ns + verify %d ns",
			attributed, observedNs, verifyNs)
	}
	return nil
}

// ---- ctrl-replay: fig2's 8-rank controller replay, no DTL ----

const (
	ctrlAccesses      = 16 * 1 << 20
	ctrlSmallAccesses = 24 * ctrlStep
	// ctrlPressure compresses arrival pacing as fig2 does (replay.go's
	// pressure): 2 GHz, IPC 1, rate-adjusted by 2.
	ctrlPressure = 2.0
)

type ctrlReplay struct {
	ctrl  *memctrl.Controller
	codec *dram.AddressCodec
	mix   *trace.Mixed
	seg   int64
	n     int
	m     model

	// One step of the stream, generated ahead.
	addrs  []int64
	writes []bool
	arrive []sim.Time
	dpas   []dram.DPA
}

func setupCtrlReplay(seed int64, small bool, tr *tracer) (pass, error) {
	g := dram.Geometry{
		Channels:        4,
		RanksPerChannel: 8,
		BanksPerRank:    16,
		SegmentBytes:    2 * dram.MiB,
		RankBytes:       32 * dram.GiB,
	}
	dev, err := dram.NewDevice(g, dram.DefaultPowerModel(), dram.DefaultTiming())
	if err != nil {
		return nil, err
	}
	profiles := trace.CloudSuite()
	for i := range profiles {
		profiles[i].FootprintBytes = 16 << 30
	}
	mix, err := trace.NewMixed(profiles, seed)
	if err != nil {
		return nil, err
	}
	n := ctrlAccesses
	if small {
		n = ctrlSmallAccesses
	}
	return &ctrlReplay{
		ctrl:   memctrl.New(dev),
		codec:  dev.Codec(),
		mix:    mix,
		seg:    g.SegmentBytes,
		n:      n,
		addrs:  make([]int64, ctrlStep),
		writes: make([]bool, ctrlStep),
		arrive: make([]sim.Time, ctrlStep),
		dpas:   make([]dram.DPA, ctrlStep),
	}, nil
}

func (p *ctrlReplay) run(tr *tracer, clk *stepClock) error {
	for done := 0; done < p.n; {
		k := min(ctrlStep, p.n-done)
		t0 := tr.begin()
		for j := 0; j < k; j++ {
			a := p.mix.Next()
			p.addrs[j], p.writes[j] = a.Addr, a.Write
			p.arrive[j] = sim.Time(float64(a.Instr) * 0.5 / ctrlPressure)
		}
		tr.end(spTraceNext, t0, k)
		t0 = tr.begin()
		for j := 0; j < k; j++ {
			a := p.addrs[j]
			p.dpas[j] = p.codec.Compose(p.codec.RankInterleavedDSN(a/p.seg), a%p.seg)
		}
		tr.end(spDramCodec, t0, k)
		t0 = tr.begin()
		for j := 0; j < k; j++ {
			arrive := p.arrive[j]
			res := p.ctrl.Access(memctrl.Request{Addr: p.dpas[j], Write: p.writes[j], Arrive: arrive})
			if res.Done < arrive {
				return fmt.Errorf("ctrl-replay: access %d done at %v before arrival %v", done+j, res.Done, arrive)
			}
			p.m.LatSumNs += int64(res.Done-arrive) + int64(cxl.NativeDRAMLatency)
			if res.RowHit {
				p.m.RowHits++
			}
		}
		tr.end(spMemctrlAccess, t0, k)
		done += k
		if k == ctrlStep {
			clk.step()
		}
	}
	p.m.Accesses = int64(p.n)
	return nil
}

func (p *ctrlReplay) finish() (model, string, error) {
	var served int64
	for _, r := range p.ctrl.LifetimeStats() {
		served += r.Accesses
	}
	if served != p.m.Accesses || p.ctrl.TotalBytes() != p.m.Accesses*memctrl.LineBytes {
		return p.m, "", fmt.Errorf("ctrl-replay: controller served %d accesses (%d B), the benchmark issued %d",
			served, p.ctrl.TotalBytes(), p.m.Accesses)
	}
	state := fmt.Sprintf("no DTL: %d accesses straight into memctrl over %d ranks, row-hit ratio %.4f, DTL accesses %d",
		p.m.Accesses, len(p.ctrl.LifetimeStats()), ratio(p.m.RowHits, p.m.Accesses), p.m.CoreAccesses)
	if p.m.CoreAccesses != 0 || p.m.SMC != (core.SMCStats{}) {
		return p.m, state, errors.New("ctrl-replay: reached the DTL")
	}
	return p.m, state, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
