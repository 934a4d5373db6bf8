package core

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/memctrl"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// VMID identifies a virtual machine instance across hosts.
type VMID int

// HostID identifies a compute host sharing the CXL device.
type HostID int

// dsnFree marks an unmapped physical segment in the reverse mapping table.
const dsnFree dram.HSN = -1

// DTL is the DRAM Translation Layer: the in-CXL-controller indirection
// between host physical addresses and DRAM device physical addresses, plus
// the two power-management engines built on it.
//
// DTL is single-threaded and driven by a trace replay loop that presents
// accesses in nondecreasing time order; this mirrors the hardware, where
// the translation pipeline is a single in-order datapath per device. This
// is also why DTL-driven experiments keep the serial sim.Engine when
// Options.Shards asks for sharded execution: the SMC, segMap/revMap, and
// the allocator are device-global structures every access may touch, so
// there is no channel decomposition to exploit — the per-channel sharding
// of sim.ShardedEngine applies to the raw controller replays, where state
// partitions cleanly by channel (see memctrl.Controller).
type DTL struct {
	cfg   Config
	dev   *dram.Device
	ctrl  *memctrl.Controller
	codec *dram.AddressCodec
	smc   *smc

	// segMap is the DRAM-resident segment mapping table: HSN → DSN for
	// every allocated host segment (Fig. 4). Dense paged table mirroring
	// revMap's layout; the paper's table is itself a dense DRAM array
	// (Table 5 sizes it at full capacity), so this is both the faithful
	// and the fast representation.
	segMap *segTable
	// revMap is the reverse mapping table: DSN → HSN (dsnFree when the
	// physical segment is unallocated), used to update segMap after
	// migration (§4.2).
	revMap []dram.HSN

	// free holds the free segment queues, one per global rank (§4.2),
	// pre-sized to a full rank; allocated counts track per-rank
	// utilization for victim selection. Entries are 32-bit segment
	// numbers (Config.Validate bounds the segment count).
	free      []fifo[int32]
	allocated []int64 // live segments per global rank

	// vms tracks each VM's allocation so deallocation can return exactly
	// the segments it received.
	vms map[VMID]*vmState
	// auFree is the pool of unassigned allocation-unit slots per host
	// (the free AU queue of Table 5).
	auFree []fifo[int64]

	// allocScratch holds the per-channel segment staging buffers AllocateVM
	// fills from the free queues, reused across calls so the allocation
	// fast path stays off the heap.
	allocScratch [][]int32

	// poweredDown is the stack of virtual rank groups currently in MPSM,
	// most recent last (§4.3 "Virtualizing Rank Group").
	poweredDown [][]dram.RankID
	// retired marks global ranks permanently taken offline (reliability
	// extension); their capacity is removed from the allocator.
	retired map[int]bool

	hot    *hotness
	mig    *migrator
	scrub  *Scrubber
	health *HealthMonitor

	// reg is the always-on metrics registry backing every DTL counter; the
	// Stats accessor is a thin view over it. tracer is nil unless a caller
	// attached one (tracing is zero-cost when disabled).
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	st     statCounters

	// ledger is the attribution cost ledger (nil unless attached; charging
	// is zero-cost when disabled, like the tracer). auOwner maps a global
	// AU slot (host × TotalAUs + au) to the owning VM id so the access
	// fast path can attribute a charge without a map lookup; unowned slots
	// hold telemetry.SystemVM. migEnergyPerSeg is the precomputed active
	// energy proxy of copying one segment (ActivePowerPerGBs × bytes).
	ledger          *telemetry.Ledger
	auOwner         []int64
	segsPerAU       int64
	migEnergyPerSeg float64
}

// statCounters are the registry-backed counters behind the Stats view.
type statCounters struct {
	accesses, translationNs, missPathWalks *telemetry.Counter
	powerDownEvents, reactivateEvents      *telemetry.Counter
	segmentsMigrated, segmentsSwapped      *telemetry.Counter
	bytesMigrated                          *telemetry.Counter
	selfRefreshEnters, selfRefreshExits    *telemetry.Counter
	ranksRetired                           *telemetry.Counter
}

func newStatCounters(reg *telemetry.Registry) statCounters {
	return statCounters{
		accesses:          reg.Counter("core.accesses"),
		translationNs:     reg.Counter("core.translation_ns"),
		missPathWalks:     reg.Counter("core.smc.miss_path_walks"),
		powerDownEvents:   reg.Counter("core.powerdown.events"),
		reactivateEvents:  reg.Counter("core.powerdown.reactivations"),
		segmentsMigrated:  reg.Counter("core.migration.segments_migrated"),
		segmentsSwapped:   reg.Counter("core.migration.segments_swapped"),
		bytesMigrated:     reg.Counter("core.migration.bytes"),
		selfRefreshEnters: reg.Counter("core.selfrefresh.enters"),
		selfRefreshExits:  reg.Counter("core.selfrefresh.exits"),
		ranksRetired:      reg.Counter("core.ranks_retired"),
	}
}

// vmState is one VM's allocation. Its host segments are not stored: they
// are hsnOf(host, au, off) for each AU in aus and each offset in the AU,
// in that order.
type vmState struct {
	host HostID
	aus  []int64 // AU ids assigned to this VM
}

// Stats aggregates DTL-level counters.
type Stats struct {
	Accesses          int64
	TranslationNs     int64 // summed address-translation latency
	MissPathWalks     int64
	PowerDownEvents   int64 // rank groups entering MPSM
	ReactivateEvents  int64 // rank groups exiting MPSM
	SegmentsMigrated  int64 // for power-down consolidation
	SegmentsSwapped   int64 // for hotness-aware self-refresh
	BytesMigrated     int64
	SelfRefreshEnters int64
	SelfRefreshExits  int64
	RanksRetired      int64
}

// New builds a DTL over a fresh device and controller.
func New(cfg Config) (*DTL, error) {
	def := DefaultConfig(cfg.Geometry)
	fillDefaults(&cfg, def)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dev, err := dram.NewDevice(cfg.Geometry, dram.DefaultPowerModel(), dram.DefaultTiming())
	if err != nil {
		return nil, err
	}
	return NewWithDevice(cfg, dev)
}

// NewWithDevice builds a DTL over an existing device (for tests and
// experiments that need custom power/timing models).
func NewWithDevice(cfg Config, dev *dram.Device) (*DTL, error) {
	def := DefaultConfig(cfg.Geometry)
	fillDefaults(&cfg, def)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	// The HSN space spans every (host, AU, offset) triple the device can
	// name: MaxHosts × TotalAUs × SegmentsPerAU entries.
	maxHSN := int64(cfg.MaxHosts) * cfg.TotalAUs() * cfg.SegmentsPerAU()
	d := &DTL{
		cfg:          cfg,
		dev:          dev,
		ctrl:         memctrl.New(dev),
		codec:        dev.Codec(),
		smc:          newSMC(cfg.L1SMCEntries, cfg.L2SMCEntries, cfg.L2SMCWays),
		segMap:       newSegTable(maxHSN),
		revMap:       make([]dram.HSN, g.TotalSegments()),
		free:         make([]fifo[int32], g.TotalRanks()),
		allocated:    make([]int64, g.TotalRanks()),
		vms:          make(map[VMID]*vmState),
		auFree:       make([]fifo[int64], cfg.MaxHosts),
		allocScratch: make([][]int32, g.Channels),
		reg:          telemetry.NewRegistry(),
	}
	d.st = newStatCounters(d.reg)
	d.ctrl.RegisterMetrics(d.reg)
	d.segsPerAU = cfg.SegmentsPerAU()
	d.migEnergyPerSeg = dev.Power().ActivePowerPerGBs * float64(g.SegmentBytes)
	d.auOwner = make([]int64, int64(cfg.MaxHosts)*cfg.TotalAUs())
	for i := range d.auOwner {
		d.auOwner[i] = telemetry.SystemVM
	}
	for i := range d.revMap {
		d.revMap[i] = dsnFree
	}
	// Populate free segment queues: every physical segment starts free.
	// Each queue is pre-sized to a full rank, its maximum occupancy.
	for gr := range d.free {
		d.free[gr] = newFIFO[int32](g.SegmentsPerRank())
	}
	for s := dram.DSN(0); int64(s) < g.TotalSegments(); s++ {
		l := d.codec.DecodeDSN(s)
		gr := d.codec.GlobalRank(l.Channel, l.Rank)
		d.free[gr].push(int32(s))
	}
	// Each host gets its own AU id space.
	ausPerHost := cfg.TotalAUs()
	for h := range d.auFree {
		d.auFree[h] = newFIFO[int64](ausPerHost)
		for i := int64(0); i < ausPerHost; i++ {
			d.auFree[h].push(i)
		}
	}
	perChannel := cfg.SegmentsPerAU() / int64(g.Channels)
	for ch := range d.allocScratch {
		d.allocScratch[ch] = make([]int32, 0, perChannel)
	}
	d.hot = newHotness(d)
	d.mig = newMigrator(d)
	d.health = newHealthMonitor(d, DefaultHealthConfig())
	d.registerGauges()
	return d, nil
}

// registerGauges attaches derived time-series gauges over live model state:
// migration queue depth per channel, rank power-state populations, live VM
// count. Sampled together with the counters, they make every metric a
// virtual-time series.
func (d *DTL) registerGauges() {
	g := d.cfg.Geometry
	for ch := 0; ch < g.Channels; ch++ {
		ch := ch
		d.reg.GaugeFunc(fmt.Sprintf("memctrl.ch%d.migq_depth", ch), func() float64 {
			return float64(len(d.mig.windows[ch]))
		})
	}
	d.reg.GaugeFunc("core.migq.outstanding", func() float64 {
		return float64(d.Migrator().Outstanding())
	})
	d.reg.GaugeFunc("core.live_vms", func() float64 {
		return float64(len(d.vms))
	})
	d.reg.GaugeFunc("dev.power.background_units", func() float64 {
		return d.dev.BackgroundPowerNow()
	})
	for st := dram.Standby; st <= dram.MPSM; st++ {
		st := st
		d.reg.GaugeFunc("dev.ranks."+st.String(), func() float64 {
			return float64(d.dev.CountByState()[st])
		})
	}
}

// Registry exposes the DTL's always-on metrics registry so callers can add
// their own metrics, sample it on a sim interval timer, and export CSV.
func (d *DTL) Registry() *telemetry.Registry { return d.reg }

// AttachTracer installs tr as the event tracer for this DTL and wires the
// device's power-transition hook into it. Passing nil detaches tracing and
// restores the zero-cost path.
func (d *DTL) AttachTracer(tr *telemetry.Tracer) {
	d.tracer = tr
	if tr == nil {
		d.dev.OnTransition(nil)
		return
	}
	d.dev.OnTransition(func(id dram.RankID, from, to dram.PowerState, at, ready sim.Time) {
		tr.PowerTransition(d.codec.GlobalRank(id.Channel, id.Rank), int(to), at)
	})
}

// StartTrace builds a tracer sized for this device (one power timeline per
// global rank, capacity 0 selecting the default ring size), attaches it, and
// returns it. The caller must call Finish on the tracer at the run horizon
// before exporting.
func (d *DTL) StartTrace(capacity int, now sim.Time) *telemetry.Tracer {
	g := d.cfg.Geometry
	tr := telemetry.NewTracer(telemetry.TracerConfig{
		Ranks:    g.TotalRanks(),
		Channels: g.Channels,
		StateNames: []string{
			dram.Standby.String(), dram.SelfRefresh.String(), dram.MPSM.String(),
		},
		InitialState: int(dram.Standby),
		Capacity:     capacity,
		Start:        now,
	})
	// Ranks already away from standby (e.g. tracing started mid-run) seed
	// their timelines with a transition at the trace origin.
	for ch := 0; ch < g.Channels; ch++ {
		for rk := 0; rk < g.RanksPerChannel; rk++ {
			if st := d.dev.State(dram.RankID{Channel: ch, Rank: rk}); st != dram.Standby {
				tr.PowerTransition(d.codec.GlobalRank(ch, rk), int(st), now)
			}
		}
	}
	d.AttachTracer(tr)
	return tr
}

// Tracer reports the attached tracer (nil when tracing is off).
func (d *DTL) Tracer() *telemetry.Tracer { return d.tracer }

// AttachLedger installs l as the attribution cost ledger. Passing nil
// detaches it and restores the zero-cost path.
func (d *DTL) AttachLedger(l *telemetry.Ledger) { d.ledger = l }

// Ledger reports the attached cost ledger (nil when attribution is off).
func (d *DTL) Ledger() *telemetry.Ledger { return d.ledger }

// StartLedger builds a ledger sized for this device, attaches it, and
// returns it.
func (d *DTL) StartLedger() *telemetry.Ledger {
	l := telemetry.NewLedger(telemetry.LedgerConfig{Ranks: d.cfg.Geometry.TotalRanks()})
	d.AttachLedger(l)
	return l
}

// FinishAttribution completes the attribution bill after tr.Finish: the
// tracer's closed power spans are folded into led as background residency
// energy, and the final cell totals are dumped into the trace. Drivers that
// wire a tracer and a ledger together call this once at the run horizon;
// rack.Fabric implements the same method with a cross-expander fold, so
// experiment telemetry can treat one expander and a rack uniformly.
func (d *DTL) FinishAttribution(tr *telemetry.Tracer, led *telemetry.Ledger, horizon sim.Time) {
	led.ChargeResidency(tr, nil)
	led.EmitTo(tr, horizon)
}

// ownerOf reports the VM owning hsn's allocation unit, or
// telemetry.SystemVM when the AU is unassigned.
func (d *DTL) ownerOf(hsn dram.HSN) int64 {
	return d.auOwner[int64(hsn)/d.segsPerAU]
}

// chargeSpan books one background attribution span into the ledger and
// mirrors it into the trace. No-op when the ledger is detached.
func (d *DTL) chargeSpan(vm int64, rank int, cause telemetry.Cause, start, end sim.Time, energy float64) {
	if d.ledger == nil {
		return
	}
	d.ledger.End(d.ledger.Begin(vm, rank, cause, start), end, energy)
	d.tracer.AttrSpan(vm, rank, cause.String(), start, end, energy)
}

// fillDefaults copies default values into zero-valued cfg fields.
func fillDefaults(cfg *Config, def Config) {
	if cfg.AUBytes == 0 {
		cfg.AUBytes = def.AUBytes
	}
	if cfg.MaxHosts == 0 {
		cfg.MaxHosts = def.MaxHosts
	}
	if cfg.L1SMCEntries == 0 {
		cfg.L1SMCEntries = def.L1SMCEntries
	}
	if cfg.L2SMCEntries == 0 {
		cfg.L2SMCEntries = def.L2SMCEntries
	}
	if cfg.L2SMCWays == 0 {
		cfg.L2SMCWays = def.L2SMCWays
	}
	if cfg.ProfilingWindow == 0 {
		cfg.ProfilingWindow = def.ProfilingWindow
	}
	if cfg.ProfilingThreshold == 0 {
		cfg.ProfilingThreshold = def.ProfilingThreshold
	}
	if cfg.TSPTimeout == 0 {
		cfg.TSPTimeout = def.TSPTimeout
	}
	if cfg.TSPTimeoutEntries == 0 {
		cfg.TSPTimeoutEntries = def.TSPTimeoutEntries
	}
	if cfg.MigrationRetryLimit == 0 {
		cfg.MigrationRetryLimit = def.MigrationRetryLimit
	}
	if cfg.ReserveRankGroups == 0 {
		cfg.ReserveRankGroups = def.ReserveRankGroups
	}
	if cfg.SelfRefreshMinStandby == 0 {
		cfg.SelfRefreshMinStandby = def.SelfRefreshMinStandby
	}
	if cfg.L1SMCHit == 0 {
		cfg.L1SMCHit = def.L1SMCHit
	}
	if cfg.L2SMCHit == 0 {
		cfg.L2SMCHit = def.L2SMCHit
	}
	if cfg.SRAMTableHit == 0 {
		cfg.SRAMTableHit = def.SRAMTableHit
	}
	if cfg.DRAMTableMiss == 0 {
		cfg.DRAMTableMiss = def.DRAMTableMiss
	}
}

// Config returns the DTL's effective configuration.
func (d *DTL) Config() Config { return d.cfg }

// Device returns the underlying DRAM device.
func (d *DTL) Device() *dram.Device { return d.dev }

// Controller returns the memory controller.
func (d *DTL) Controller() *memctrl.Controller { return d.ctrl }

// Stats returns a snapshot of DTL counters. It is a thin view over the
// telemetry registry, which owns the live counters.
func (d *DTL) Stats() Stats {
	return Stats{
		Accesses:          d.st.accesses.Value(),
		TranslationNs:     d.st.translationNs.Value(),
		MissPathWalks:     d.st.missPathWalks.Value(),
		PowerDownEvents:   d.st.powerDownEvents.Value(),
		ReactivateEvents:  d.st.reactivateEvents.Value(),
		SegmentsMigrated:  d.st.segmentsMigrated.Value(),
		SegmentsSwapped:   d.st.segmentsSwapped.Value(),
		BytesMigrated:     d.st.bytesMigrated.Value(),
		SelfRefreshEnters: d.st.selfRefreshEnters.Value(),
		SelfRefreshExits:  d.st.selfRefreshExits.Value(),
		RanksRetired:      d.st.ranksRetired.Value(),
	}
}

// SMCStats returns segment-mapping-cache hit/miss counters.
func (d *DTL) SMCStats() SMCStats { return d.smc.stats() }

// Hotness returns the self-refresh engine for inspection and control.
func (d *DTL) Hotness() *Hotness { return (*Hotness)(d.hot) }

// Migrator exposes migration-protocol statistics.
func (d *DTL) Migrator() *Migrator { return (*Migrator)(d.mig) }

// hsnOf composes the host segment number for (host, au, offset) — the
// Figure 4 HSN decomposition, arithmetic form.
func (d *DTL) hsnOf(host HostID, au int64, off int64) dram.HSN {
	perAU := d.cfg.SegmentsPerAU()
	maxAUs := d.cfg.TotalAUs()
	return dram.HSN((int64(host)*maxAUs+au)*perAU + off)
}

// AccessResult describes one translated and serviced memory access.
type AccessResult struct {
	DPA dram.DPA
	// TranslationLat is the HPA→DPA translation latency (Eq. 2 term).
	TranslationLat sim.Time
	// MemLat is the DRAM service latency including queueing and any
	// power-state exit penalty.
	MemLat sim.Time
	// SMCLevel reports where the translation hit: 1 (L1), 2 (L2),
	// 0 (full miss path walk).
	SMCLevel int
	// WokeSelfRefresh reports that the access forced a rank out of SR.
	WokeSelfRefresh bool
}

// TotalLat is translation plus memory service latency.
func (r AccessResult) TotalLat() sim.Time { return r.TranslationLat + r.MemLat }

// Access translates and services one post-cache access at virtual time now.
// hpa must fall inside a segment previously allocated to a VM.
func (d *DTL) Access(hpa dram.HPA, write bool, now sim.Time) (AccessResult, error) {
	hsn := d.codec.HostSegmentOf(hpa)

	dsn, lvl := d.smc.lookup(hsn)
	var tlat sim.Time
	switch lvl {
	case 1:
		tlat = d.cfg.L1SMCHit
	case 2:
		tlat = d.cfg.L1SMCHit + d.cfg.L2SMCHit
	default:
		// Miss path: host base address table + AU base address table in
		// SRAM, then the segment mapping table in DRAM (Fig. 4).
		mapped, ok := d.segMap.get(hsn)
		if !ok {
			return AccessResult{}, fmt.Errorf("core: access to unallocated hsn %d (hpa %#x)", hsn, int64(hpa))
		}
		dsn = mapped
		tlat = d.cfg.L1SMCHit + d.cfg.L2SMCHit + 2*d.cfg.SRAMTableHit + d.cfg.DRAMTableMiss
		d.smc.install(hsn, dsn)
		d.st.missPathWalks.Inc()
		d.tracer.SMCMiss(now)
	}

	// Consistency: a cached translation must agree with the table.
	if lvl != 0 {
		if mapped, ok := d.segMap.get(hsn); !ok || mapped != dsn {
			return AccessResult{}, fmt.Errorf("core: stale SMC entry hsn %d -> dsn %d (table: %v)", hsn, dsn, mapped)
		}
	}

	dpa := d.codec.Compose(dsn, d.codec.OffsetOf(dram.DPA(hpa)))
	loc := d.codec.DecodeDSN(dsn)
	id := dram.RankID{Channel: loc.Channel, Rank: loc.Rank}
	wasSR := d.dev.State(id) == dram.SelfRefresh

	// The migration protocol may redirect or delay conflicting writes
	// (§4.2); this also charges abort/retry bookkeeping.
	d.mig.onForegroundAccess(dsn, loc.Channel, write, now)

	res := d.ctrl.Access(memctrl.Request{Addr: dpa, Write: write, Arrive: now + tlat})

	if wasSR {
		d.st.selfRefreshExits.Inc()
		d.tracer.Wake(d.codec.GlobalRank(loc.Channel, loc.Rank), now, res.WakeDelay)
		d.hot.onSelfRefreshWake(id, now)
	}
	d.hot.onAccess(dsn, loc, now)

	d.st.accesses.Inc()
	d.st.translationNs.Add(int64(tlat))

	if d.ledger != nil {
		// Decompose the access latency into attribution causes: the
		// L1-hit translation plus un-penalized service time is baseline;
		// everything above it is charged to the mechanism that added it.
		// The four terms sum to TotalLat exactly (conservation).
		gr := d.codec.GlobalRank(loc.Channel, loc.Rank)
		vm := d.auOwner[int64(hsn)/d.segsPerAU]
		base := d.cfg.L1SMCHit + (res.Done - (now + tlat)) - res.WakeDelay - res.Degraded
		d.ledger.Charge(vm, gr, telemetry.CauseBaseline, int64(base), 0)
		if walk := tlat - d.cfg.L1SMCHit; walk > 0 {
			d.ledger.Charge(vm, gr, telemetry.CauseSMCMissWalk, int64(walk), 0)
		}
		if res.WakeDelay > 0 {
			d.ledger.Charge(vm, gr, telemetry.CauseSelfRefreshWake, int64(res.WakeDelay), 0)
		}
		if res.Degraded > 0 {
			d.ledger.Charge(vm, gr, telemetry.CauseDegradedRead, int64(res.Degraded), 0)
		}
	}

	return AccessResult{
		DPA:             dpa,
		TranslationLat:  tlat,
		MemLat:          res.Done - (now + tlat),
		SMCLevel:        lvl,
		WokeSelfRefresh: wasSR,
	}, nil
}

// ProbeDegraded issues one read access against every failed-but-unretired
// global rank that still holds live data, at virtual time now. It models the
// health plane sampling a degraded rank (the paper's verify-before-reroute
// probes) and guarantees the cost ledger sees the degraded-read penalty even
// when retirement evacuates the rank before the next foreground access lands
// on it. Returns the number of probes issued and their summed total latency.
func (d *DTL) ProbeDegraded(now sim.Time) (int, sim.Time) {
	g := d.cfg.Geometry
	probes := 0
	var lat sim.Time
	for gr := 0; gr < g.TotalRanks(); gr++ {
		if !d.dev.FailedGlobal(gr) || d.retired[gr] || d.allocated[gr] == 0 {
			continue
		}
		// Find the first live segment still resident on the failed rank.
		ch, rk := d.codec.SplitGlobalRank(gr)
		hsn := dsnFree
		for idx := int64(0); idx < g.SegmentsPerRank(); idx++ {
			dsn := d.codec.EncodeDSN(dram.Loc{Channel: ch, Rank: rk, Index: idx})
			if h := d.revMap[dsn]; h != dsnFree {
				hsn = h
				break
			}
		}
		if hsn == dsnFree {
			continue
		}
		res, err := d.Access(dram.HPA(int64(hsn)<<d.codec.SegmentShift()), false, now)
		if err != nil {
			continue
		}
		probes++
		lat += res.TotalLat()
	}
	return probes, lat
}

// Tick advances time-driven machinery (profiling windows, phase
// transitions, migration completions, pending health actions) to now
// without an access.
func (d *DTL) Tick(now sim.Time) {
	d.mig.completeUpTo(now)
	d.hot.tick(now)
	d.health.process(now)
}

// CheckInvariants verifies the mapping bijection, free-queue consistency,
// power-state safety, SMC coherence with the segment table, and the SMC and
// migrator indexes. It is used by property tests and is cheap enough to run
// after every structural operation in tests.
func (d *DTL) CheckInvariants() error {
	g := d.cfg.Geometry
	// segMap and revMap must be mutually inverse.
	var mapErr error
	d.segMap.forEach(func(hsn dram.HSN, dsn dram.DSN) {
		if mapErr != nil {
			return
		}
		if int64(dsn) < 0 || int64(dsn) >= g.TotalSegments() {
			mapErr = fmt.Errorf("invariant: hsn %d maps to out-of-range dsn %d", hsn, dsn)
			return
		}
		if d.revMap[dsn] != hsn {
			mapErr = fmt.Errorf("invariant: revMap[%d] = %d, want %d", dsn, d.revMap[dsn], hsn)
		}
	})
	if mapErr != nil {
		return mapErr
	}
	mapped := 0
	for dsn, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		mapped++
		if got, ok := d.segMap.get(hsn); !ok || got != dram.DSN(dsn) {
			return fmt.Errorf("invariant: segMap[%d] = %v, want dsn %d", hsn, got, dsn)
		}
	}
	if mapped != d.segMap.len() {
		return fmt.Errorf("invariant: revMap has %d live entries, segMap has %d", mapped, d.segMap.len())
	}
	// Free queues: disjoint from live mappings, counts consistent.
	seen := make(map[dram.DSN]bool, len(d.revMap))
	for gr := range d.free {
		q := d.free[gr].items()
		for _, s := range q {
			dsn := dram.DSN(s)
			if seen[dsn] {
				return fmt.Errorf("invariant: dsn %d in multiple free queues", dsn)
			}
			seen[dsn] = true
			if d.revMap[dsn] != dsnFree {
				return fmt.Errorf("invariant: free dsn %d is mapped to hsn %d", dsn, d.revMap[dsn])
			}
			l := d.codec.DecodeDSN(dsn)
			if d.codec.GlobalRank(l.Channel, l.Rank) != gr {
				return fmt.Errorf("invariant: dsn %d in wrong free queue %d", dsn, gr)
			}
		}
		if d.retired[gr] {
			if len(q) != 0 || d.allocated[gr] != 0 {
				return fmt.Errorf("invariant: retired rank %d has free %d / allocated %d",
					gr, len(q), d.allocated[gr])
			}
			continue
		}
		if int64(len(q))+d.allocated[gr] != g.SegmentsPerRank() {
			return fmt.Errorf("invariant: rank %d free %d + allocated %d != %d",
				gr, len(q), d.allocated[gr], g.SegmentsPerRank())
		}
	}
	retiredSegs := int64(len(d.retired)) * g.SegmentsPerRank()
	if int64(len(seen)+mapped)+retiredSegs != g.TotalSegments() {
		return fmt.Errorf("invariant: free %d + mapped %d + retired %d != total %d",
			len(seen), mapped, retiredSegs, g.TotalSegments())
	}
	// No live segment may sit on an MPSM rank.
	for dsn, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		l := d.codec.DecodeDSN(dram.DSN(dsn))
		if d.dev.State(dram.RankID{Channel: l.Channel, Rank: l.Rank}) == dram.MPSM {
			return fmt.Errorf("invariant: live dsn %d on MPSM rank ch%d/rk%d", dsn, l.Channel, l.Rank)
		}
	}
	// Every cached translation agrees with the segment table.
	for _, lvl := range [][]smcEntry{d.smc.l1, d.smc.l2} {
		for _, e := range lvl {
			if !e.valid {
				continue
			}
			if got, ok := d.segMap.get(e.hsn); !ok || got != e.dsn {
				return fmt.Errorf("invariant: SMC caches hsn %d -> dsn %d, table has %d (mapped %v)", e.hsn, e.dsn, got, ok)
			}
		}
	}
	if err := d.smc.check(); err != nil {
		return err
	}
	return d.mig.check()
}
