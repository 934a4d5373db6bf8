package core

import (
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// hotTestDTL builds a DTL with fast (scaled-down) hotness thresholds and a
// workload layout suitable for self-refresh tests: two VMs filling two rank
// groups, leaving two standby rank groups as consolidation headroom is not
// powered down because of live data spread.
func hotTestDTL(t *testing.T) *DTL {
	t.Helper()
	cfg := testConfig()
	cfg.ProfilingWindow = 10 * sim.Microsecond
	cfg.ProfilingThreshold = 100 * sim.Microsecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// driveAccesses replays n accesses round-robin over the given bases spaced
// gap apart, returning the final time.
func driveAccesses(t *testing.T, d *DTL, bases []dram.HPA, n int, start, gap sim.Time) sim.Time {
	t.Helper()
	now := start
	for i := 0; i < n; i++ {
		base := bases[i%len(bases)]
		// Touch different lines within the first few segments.
		off := int64(i%8) * 2 * dram.MiB
		if _, err := d.Access(base+dram.HPA(off), i%4 == 0, now); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		now += gap
	}
	return now
}

func TestHotnessDisabledByDefault(t *testing.T) {
	d := hotTestDTL(t)
	if d.Hotness().Enabled() {
		t.Fatal("hotness engine enabled by default")
	}
	mustAlloc(t, d, 1, 0, 64*dram.MiB, 0)
	a, _ := d.VMAddresses(1)
	driveAccesses(t, d, a, 100, 0, 1000)
	if d.Stats().SelfRefreshEnters != 0 {
		t.Fatal("self-refresh entered with engine disabled")
	}
}

func TestHotnessPhaseProgression(t *testing.T) {
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0) // two rank groups
	d.Hotness().Enable(0)
	for ch := 0; ch < 4; ch++ {
		if got := d.Hotness().Phase(ch); got != PhaseWindow {
			t.Fatalf("channel %d phase = %v, want window", ch, got)
		}
	}
	a, _ := d.VMAddresses(1)
	// Drive enough accesses to close the window (10us) on every channel.
	driveAccesses(t, d, a, 400, 0, 100)
	sawProfiling := false
	for ch := 0; ch < 4; ch++ {
		if d.Hotness().Phase(ch) == PhaseProfiling {
			sawProfiling = true
			if d.Hotness().VictimRank(ch) < 0 {
				t.Fatalf("profiling channel %d without victim", ch)
			}
		}
	}
	if !sawProfiling {
		t.Fatal("no channel reached the profiling phase")
	}
	if d.Hotness().Stats().VictimSelections == 0 {
		t.Fatal("no victim selections recorded")
	}
}

// TestSelfRefreshEnterPolicy: raising SelfRefreshMinStandby to the channel's
// rank count leaves no room for a victim plus the required standby targets,
// so the same workload that enters self-refresh under the default policy
// never enters it under the conservative one.
func TestSelfRefreshEnterPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.ProfilingWindow = 10 * sim.Microsecond
	cfg.ProfilingThreshold = 100 * sim.Microsecond
	cfg.SelfRefreshMinStandby = cfg.Geometry.RanksPerChannel
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	hot := a[:4]
	now := driveAccesses(t, d, hot, 2000, 0, 500)
	d.Tick(now + 200*sim.Microsecond)
	if got := d.Stats().SelfRefreshEnters; got != 0 {
		t.Fatalf("SR enters = %d under a policy that forbids entry", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHotnessEntersSelfRefresh(t *testing.T) {
	d := hotTestDTL(t)
	// Two rank groups of data; traffic touches only the first AU of each
	// base (hot), leaving the second rank group cold.
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	hot := a[:4] // first AUs only
	now := driveAccesses(t, d, hot, 2000, 0, 500)
	// Let the idle timer mature, then tick.
	d.Tick(now + 200*sim.Microsecond)
	if d.Stats().SelfRefreshEnters == 0 {
		t.Fatal("no rank entered self-refresh")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// At least one rank should currently be in self-refresh.
	if len(d.Device().RanksIn(dram.SelfRefresh)) == 0 {
		t.Fatal("no rank currently in self-refresh")
	}
}

func TestSelfRefreshWakeOnAccess(t *testing.T) {
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	hot := a[:4]
	now := driveAccesses(t, d, hot, 2000, 0, 500)
	d.Tick(now + 200*sim.Microsecond)
	srRanks := d.Device().RanksIn(dram.SelfRefresh)
	if len(srRanks) == 0 {
		t.Skip("setup did not produce a self-refresh rank")
	}
	// Find a live segment on an SR rank and access it via its HPA.
	var target dram.HPA
	found := false
	for dsn, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		l := d.codec.DecodeDSN(dram.DSN(dsn))
		for _, id := range srRanks {
			if l.Channel == id.Channel && l.Rank == id.Rank {
				target = dram.HPA(int64(hsn) << d.codec.SegmentShift())
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no live segment on the self-refresh rank")
	}
	wake := now + 300*sim.Microsecond
	res, err := d.Access(target, false, wake)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WokeSelfRefresh {
		t.Fatal("access to SR rank did not report a wake")
	}
	if d.Stats().SelfRefreshExits == 0 {
		t.Fatal("exit not counted")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationTableCaseB(t *testing.T) {
	// Accessing a segment physically in the victim rank must swap its plan
	// with a cold target entry (Fig. 8b).
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	// Close the windows.
	now := driveAccesses(t, d, a, 400, 0, 100)
	h := d.Hotness()
	ch := -1
	for c := 0; c < 4; c++ {
		if h.Phase(c) == PhaseProfiling {
			ch = c
			break
		}
	}
	if ch < 0 {
		t.Fatal("no profiling channel")
	}
	victim := h.VictimRank(ch)
	// Find a live, not-yet-planned segment physically in the victim rank.
	var hpa dram.HPA
	var dsn dram.DSN
	found := false
	for s, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		l := d.codec.DecodeDSN(dram.DSN(s))
		if l.Channel == ch && l.Rank == victim && h.PlannedSlot(dram.DSN(s)) == dram.DSN(s) {
			hpa = dram.HPA(int64(hsn) << d.codec.SegmentShift())
			dsn = dram.DSN(s)
			found = true
			break
		}
	}
	if !found {
		t.Skip("victim rank holds no unplanned live segments")
	}
	if _, err := d.Access(hpa, false, now); err != nil {
		t.Fatal(err)
	}
	planned := h.PlannedSlot(dsn)
	if planned == dsn {
		t.Fatal("hot victim segment not planned out of the victim rank")
	}
	pl := d.codec.DecodeDSN(planned)
	if pl.Rank == victim {
		t.Fatalf("plan keeps segment in victim rank %d", victim)
	}
	if pl.Channel != ch {
		t.Fatalf("plan crosses channels: %d -> %d", ch, pl.Channel)
	}
	// Plan must be a clean transposition.
	if h.PlannedSlot(planned) != dsn {
		t.Fatal("plan is not a transposition")
	}
	if h.Stats().PlanSwaps == 0 {
		t.Fatal("no plan swaps recorded")
	}
}

func TestMigrationTableCaseC(t *testing.T) {
	// Accessing a segment that was planned INTO the victim (it looked
	// cold) must restore its entry and pick a different cold segment
	// (Fig. 8c).
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	now := driveAccesses(t, d, a, 400, 0, 100)
	h := d.Hotness()
	ch := -1
	for c := 0; c < 4; c++ {
		if h.Phase(c) == PhaseProfiling {
			ch = c
			break
		}
	}
	if ch < 0 {
		t.Fatal("no profiling channel")
	}
	victim := h.VictimRank(ch)

	// Force a case-b swap to set up a planned-into-victim segment.
	var victimSeg dram.DSN
	var victimHPA dram.HPA
	found := false
	for s, hsn := range d.revMap {
		if hsn == dsnFree {
			continue
		}
		l := d.codec.DecodeDSN(dram.DSN(s))
		if l.Channel == ch && l.Rank == victim && h.PlannedSlot(dram.DSN(s)) == dram.DSN(s) {
			victimSeg = dram.DSN(s)
			victimHPA = dram.HPA(int64(hsn) << d.codec.SegmentShift())
			found = true
			break
		}
	}
	if !found {
		t.Skip("no unplanned live segment in victim rank")
	}
	if _, err := d.Access(victimHPA, false, now); err != nil {
		t.Fatal(err)
	}
	partner := h.PlannedSlot(victimSeg)
	if partner == victimSeg {
		t.Skip("case-b swap did not happen (TSP timeout)")
	}
	// partner is now planned into the victim. Access it (if live) or
	// verify restore semantics via a direct engine poke for free slots.
	partnerHSN := d.revMap[partner]
	if partnerHSN == dsnFree {
		t.Skip("partner slot is free; case c requires a live partner")
	}
	restoresBefore := h.Stats().PlanRestores
	partnerHPA := dram.HPA(int64(partnerHSN) << d.codec.SegmentShift())
	if _, err := d.Access(partnerHPA, false, now+1000); err != nil {
		t.Fatal(err)
	}
	if h.Stats().PlanRestores <= restoresBefore {
		t.Fatal("case c did not restore the swapped entry")
	}
	if h.PlannedSlot(partner) == victimSeg {
		t.Fatal("partner still planned into the victim slot")
	}
}

func TestExecuteMigrationPreservesInvariants(t *testing.T) {
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	hot := a[:4]
	now := driveAccesses(t, d, hot, 3000, 0, 500)
	d.Tick(now + 200*sim.Microsecond)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Hotness().Stats().Migrations == 0 {
		t.Fatal("no migration phase executed")
	}
	// All accesses must still resolve after swaps.
	for _, base := range a {
		if _, err := d.Access(base, false, now+300*sim.Microsecond); err != nil {
			t.Fatalf("post-migration access: %v", err)
		}
	}
}

func TestPlanIsAlwaysTranspositionProduct(t *testing.T) {
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	driveAccesses(t, d, a[:4], 3000, 0, 300)
	h := (*hotness)(d.Hotness())
	for s, p := range h.planned {
		if h.plan(dram.DSN(p)) != dram.DSN(s) {
			t.Fatalf("planned[planned[%d]] = %d, want %d", s, h.plan(dram.DSN(p)), s)
		}
	}
}

func TestHotnessSurvivesDeallocation(t *testing.T) {
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 256*dram.MiB, 0)
	mustAlloc(t, d, 2, 0, 256*dram.MiB, 0)
	d.Hotness().Enable(0)
	a1, _ := d.VMAddresses(1)
	now := driveAccesses(t, d, a1[:4], 2000, 0, 500)
	mustDealloc(t, d, 2, now+1000)
	// Plans touching freed/migrated segments must have been reset; the
	// involution property must hold and invariants too.
	h := (*hotness)(d.Hotness())
	for s, p := range h.planned {
		if h.plan(dram.DSN(p)) != dram.DSN(s) {
			t.Fatalf("broken transposition after dealloc at %d", s)
		}
	}
	driveAccesses(t, d, a1[:4], 500, now+2000, 500)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfRefreshReentry(t *testing.T) {
	// After a wake, the engine must be able to re-enter self-refresh.
	d := hotTestDTL(t)
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)
	a, _ := d.VMAddresses(1)
	hot := a[:4]
	now := driveAccesses(t, d, hot, 2000, 0, 500)
	d.Tick(now + 200*sim.Microsecond)
	first := d.Stats().SelfRefreshEnters
	if first == 0 {
		t.Skip("no initial self-refresh")
	}
	// Wake every SR rank by accessing something on it, then go idle again.
	now += 300 * sim.Microsecond
	for _, id := range d.Device().RanksIn(dram.SelfRefresh) {
		for s, hsn := range d.revMap {
			if hsn == dsnFree {
				continue
			}
			l := d.codec.DecodeDSN(dram.DSN(s))
			if l.Channel == id.Channel && l.Rank == id.Rank {
				hpa := dram.HPA(int64(hsn) << d.codec.SegmentShift())
				if _, err := d.Access(hpa, false, now); err != nil {
					t.Fatal(err)
				}
				now += 1000
				break
			}
		}
	}
	now = driveAccesses(t, d, hot, 2000, now, 500)
	d.Tick(now + 200*sim.Microsecond)
	if d.Stats().SelfRefreshEnters <= first {
		t.Fatal("no self-refresh re-entry after wake")
	}
}

func TestSelfRefreshUnderWorkloadDrift(t *testing.T) {
	// The paper argues access patterns stay stable for minutes to hours;
	// when they do drift, the engine must wake, re-plan and re-enter
	// rather than wedging. Drive a drifting workload and require both
	// exits (wakes) and repeated entries.
	cfg := testConfig()
	cfg.ProfilingWindow = 10 * sim.Microsecond
	cfg.ProfilingThreshold = 50 * sim.Microsecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, d, 1, 0, 512*dram.MiB, 0)
	d.Hotness().Enable(0)

	a, _ := d.VMAddresses(1)
	// AUs 0-3 start hot; the drift rotates in AUs from the upper half of
	// the footprint, which the first migration phase consolidates onto the
	// self-refresh victims — so each drift forces wakes and re-planning.
	hotAUs := []int{0, 1, 2, 3}
	driftTargets := []int{16, 20, 24}
	now := sim.Time(0)
	for phase := 0; phase < 4; phase++ {
		for i := 0; i < 30_000; i++ {
			au := hotAUs[i%len(hotAUs)]
			off := int64(i%8) * 2 * dram.MiB
			if _, err := d.Access(a[au]+dram.HPA(off), i%4 == 0, now); err != nil {
				t.Fatal(err)
			}
			now += 100
		}
		d.Tick(now)
		if phase < len(driftTargets) {
			hotAUs[phase%len(hotAUs)] = driftTargets[phase]
		}
	}
	st := d.Stats()
	if st.SelfRefreshEnters < 2 {
		t.Fatalf("SR enters = %d, want repeated re-entry under drift", st.SelfRefreshEnters)
	}
	if st.SelfRefreshExits == 0 {
		t.Fatal("drift produced no wakes")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
