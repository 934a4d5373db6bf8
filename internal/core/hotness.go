package core

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// Phase is the per-channel state of the hotness-aware self-refresh engine.
type Phase int

const (
	// PhaseIdle: the engine is disabled for the channel.
	PhaseIdle Phase = iota
	// PhaseWindow: counting per-rank accesses over the profiling window to
	// select the victim rank (0.5 ms, §3.4).
	PhaseWindow
	// PhaseProfiling: victim selected; the migration table simulates a
	// remapping plan via CLOCK/TSP until the hypothetical victim stays
	// idle for the profiling threshold.
	PhaseProfiling
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseWindow:
		return "window"
	case PhaseProfiling:
		return "profiling"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// chanState is per-channel hotness machinery.
type chanState struct {
	phase           Phase
	windowStart     sim.Time
	victim          int // rank index; -1 when none
	lastVictimTouch sim.Time
	targetRank      int   // TSP round-robin position
	tspIdx          int64 // TSP slot within the target rank
	windowCounts    []int64
}

// hotness implements §3.4: the migration table (access bit + planned
// rank/segment per entry), per-rank access counters, the target segment
// pointer walking a CLOCK over the target rank, the two phases, and
// self-refresh entry/exit.
type hotness struct {
	d       *DTL
	enabled bool

	// accessBit is the CLOCK reference bit per physical segment.
	accessBit []bool
	// planned[s] is the physical slot the content currently at slot s
	// should occupy after migration. Identity = no move. The plan is
	// always a product of disjoint transpositions:
	// planned[planned[s]] == s. Entries are 32-bit segment numbers, as in
	// the hardware table (Config.Validate bounds the segment count); read
	// them through plan.
	planned []int32

	ch []chanState

	stats HotStats
}

// HotStats counts self-refresh engine activity.
type HotStats struct {
	VictimSelections int64
	PlanSwaps        int64
	PlanRestores     int64
	TSPTimeouts      int64
	Migrations       int64 // migration-phase executions
	SwappedSegments  int64
}

func newHotness(d *DTL) *hotness {
	total := d.cfg.Geometry.TotalSegments()
	h := &hotness{
		d:         d,
		accessBit: make([]bool, total),
		planned:   make([]int32, total),
		ch:        make([]chanState, d.cfg.Geometry.Channels),
	}
	for i := range h.planned {
		h.planned[i] = int32(i)
	}
	for c := range h.ch {
		h.ch[c] = chanState{phase: PhaseIdle, victim: -1}
	}
	return h
}

// enable starts the engine on every channel.
func (h *hotness) enable(now sim.Time) {
	h.enabled = true
	for c := range h.ch {
		h.startWindow(c, now)
	}
}

func (h *hotness) startWindow(c int, now sim.Time) {
	cs := &h.ch[c]
	cs.phase = PhaseWindow
	cs.windowStart = now
	cs.victim = -1
	if cs.windowCounts == nil {
		cs.windowCounts = make([]int64, h.d.cfg.Geometry.RanksPerChannel)
	}
	for i := range cs.windowCounts {
		cs.windowCounts[i] = 0
	}
}

// onAccess feeds one serviced access into the engine.
func (h *hotness) onAccess(dsn dram.DSN, loc dram.Loc, now sim.Time) {
	if !h.enabled {
		return
	}
	cs := &h.ch[loc.Channel]
	if cs.phase == PhaseWindow {
		cs.windowCounts[loc.Rank]++
		if now-cs.windowStart >= h.d.cfg.ProfilingWindow {
			h.selectVictim(loc.Channel, now)
		}
		h.accessBit[dsn] = true
		return
	}
	if cs.phase != PhaseProfiling {
		h.accessBit[dsn] = true
		return
	}

	victim := cs.victim
	// Mark the reference bit first so the TSP walk below cannot hand the
	// just-accessed (hot) segment back as a cold candidate.
	h.accessBit[dsn] = true
	plannedLoc := h.d.codec.DecodeDSN(h.plan(dsn))
	inHypotheticalVictim := plannedLoc.Channel == loc.Channel && plannedLoc.Rank == victim
	if inHypotheticalVictim {
		// The access would have hit the victim rank after migration:
		// reset the idle timer (§3.4) and update the plan (Fig. 8).
		cs.lastVictimTouch = now
		if h.plan(dsn) == dsn {
			// Case (b): segment physically in the victim rank; swap its
			// entry with a cold target entry found by the TSP.
			if t := h.findColdTarget(loc.Channel); t >= 0 {
				h.swapPlan(dsn, dram.DSN(t))
				h.stats.PlanSwaps++
			}
		} else {
			// Case (c): this segment had been planned into the victim
			// (it looked cold) but is being accessed. Restore both
			// entries, then plan a different cold segment into the
			// victim slot.
			partner := h.plan(dsn)   // the victim-rank segment it swapped with
			h.swapPlan(dsn, partner) // restore identity for both
			h.stats.PlanRestores++
			if t := h.findColdTarget(loc.Channel); t >= 0 {
				h.swapPlan(partner, dram.DSN(t))
				h.stats.PlanSwaps++
			}
		}
	}

	if now-cs.lastVictimTouch >= h.d.cfg.ProfilingThreshold {
		h.executeMigration(loc.Channel, now)
	}
}

// tick drives phase transitions in the absence of accesses.
func (h *hotness) tick(now sim.Time) {
	if !h.enabled {
		return
	}
	for c := range h.ch {
		cs := &h.ch[c]
		switch cs.phase {
		case PhaseWindow:
			if now-cs.windowStart >= h.d.cfg.ProfilingWindow {
				h.selectVictim(c, now)
			}
		case PhaseProfiling:
			if now-cs.lastVictimTouch >= h.d.cfg.ProfilingThreshold {
				h.executeMigration(c, now)
			}
		}
	}
}

// selectVictim closes the window phase: the standby rank with the fewest
// window accesses becomes the victim; the TSP starts at the next rank.
func (h *hotness) selectVictim(c int, now sim.Time) {
	cs := &h.ch[c]
	g := h.d.cfg.Geometry
	best := -1
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		if h.d.dev.State(dram.RankID{Channel: c, Rank: rk}) != dram.Standby {
			continue
		}
		if best < 0 || cs.windowCounts[rk] < cs.windowCounts[best] {
			best = rk
		}
	}
	// Need the victim plus enough remaining standby ranks to satisfy the
	// enter policy (SelfRefreshMinStandby targets must survive the entry).
	if best < 0 || len(h.standbyRanks(c)) < h.d.cfg.SelfRefreshMinStandby+1 {
		h.startWindow(c, now)
		return
	}
	cs.phase = PhaseProfiling
	cs.victim = best
	cs.lastVictimTouch = now
	cs.targetRank = h.nextTargetRank(c, best, best)
	cs.tspIdx = 0
	h.stats.VictimSelections++
}

func (h *hotness) standbyRanks(c int) []int {
	var out []int
	for rk := 0; rk < h.d.cfg.Geometry.RanksPerChannel; rk++ {
		if h.d.dev.State(dram.RankID{Channel: c, Rank: rk}) == dram.Standby {
			out = append(out, rk)
		}
	}
	return out
}

// nextTargetRank advances round-robin to the next standby rank after `from`
// that is not the victim.
func (h *hotness) nextTargetRank(c, victim, from int) int {
	g := h.d.cfg.Geometry
	for i := 1; i <= g.RanksPerChannel; i++ {
		rk := (from + i) % g.RanksPerChannel
		if rk == victim {
			continue
		}
		if h.d.dev.State(dram.RankID{Channel: c, Rank: rk}) == dram.Standby {
			return rk
		}
	}
	return -1
}

// findColdTarget walks the TSP CLOCK over the current target rank looking
// for an unswapped entry with a clear access bit (a cold segment). The walk
// is bounded by TSPTimeoutEntries (the 40 ns budget); on timeout the TSP
// moves to the next target rank round-robin (§3.4) and -1 is returned.
func (h *hotness) findColdTarget(c int) int64 {
	cs := &h.ch[c]
	if cs.targetRank < 0 {
		return -1
	}
	// The target rank may have been powered down or put into self-refresh
	// since the TSP last moved; re-validate before walking it.
	if h.d.dev.State(dram.RankID{Channel: c, Rank: cs.targetRank}) != dram.Standby {
		next := h.nextTargetRank(c, cs.victim, cs.targetRank)
		if next < 0 || h.d.dev.State(dram.RankID{Channel: c, Rank: next}) != dram.Standby {
			return -1
		}
		cs.targetRank = next
		cs.tspIdx = 0
	}
	g := h.d.cfg.Geometry
	perRank := g.SegmentsPerRank()
	for budget := h.d.cfg.TSPTimeoutEntries; budget > 0; budget-- {
		slot := h.d.codec.EncodeDSN(dram.Loc{Rank: cs.targetRank, Channel: c, Index: cs.tspIdx})
		cs.tspIdx++
		if cs.tspIdx >= perRank {
			cs.tspIdx = 0
		}
		if h.plan(slot) != slot {
			continue // already part of the plan
		}
		if h.accessBit[slot] {
			h.accessBit[slot] = false // CLOCK second chance
			continue
		}
		return int64(slot)
	}
	// Timeout: collect cold segments from multiple target ranks.
	h.stats.TSPTimeouts++
	if next := h.nextTargetRank(c, cs.victim, cs.targetRank); next >= 0 {
		cs.targetRank = next
		cs.tspIdx = 0
	}
	return -1
}

// plan reports the slot the content at s should occupy after migration.
func (h *hotness) plan(s dram.DSN) dram.DSN { return dram.DSN(h.planned[s]) }

func (h *hotness) swapPlan(a, b dram.DSN) {
	h.planned[a], h.planned[b] = h.planned[b], h.planned[a]
}

// executeMigration is the migration phase (§3.4 Phase 2): apply every
// planned transposition touching this channel, update the mapping tables,
// invalidate SMC entries, then put the victim rank into self-refresh and
// restart the window phase for the channel.
func (h *hotness) executeMigration(c int, now sim.Time) {
	cs := &h.ch[c]
	victim := cs.victim
	g := h.d.cfg.Geometry

	// "DTL traverses the entire victim rank and finds the hot segments
	// that need to be migrated": any live resident with its reference bit
	// set (e.g. the access that woke the rank from a previous self-refresh
	// stint) is planned out now, not just the entries the profiling phase
	// already swapped.
	for idx := int64(0); idx < g.SegmentsPerRank(); idx++ {
		v := h.d.codec.EncodeDSN(dram.Loc{Rank: victim, Channel: c, Index: idx})
		if h.plan(v) == v && h.accessBit[v] && h.d.revMap[v] != dsnFree {
			if t := h.findColdTarget(c); t >= 0 {
				h.swapPlan(v, dram.DSN(t))
				h.stats.PlanSwaps++
			}
		}
	}

	// Walk the victim rank; each non-identity entry is one transposition.
	for idx := int64(0); idx < g.SegmentsPerRank(); idx++ {
		v := h.d.codec.EncodeDSN(dram.Loc{Rank: victim, Channel: c, Index: idx})
		p := h.plan(v)
		if p == v {
			continue
		}
		h.applySwap(v, p, now)
		h.stats.SwappedSegments++
		h.d.st.segmentsSwapped.Inc()
	}
	// Re-initialize the migration table for the channel (plan + bits).
	h.resetChannelPlan(c)

	id := dram.RankID{Channel: c, Rank: victim}
	h.d.dev.SetState(id, dram.SelfRefresh, now)
	h.d.st.selfRefreshEnters.Inc()
	h.stats.Migrations++

	// Restart profiling to hunt for the next victim among remaining
	// standby ranks.
	h.startWindow(c, now)
}

// applySwap exchanges the contents of physical slots a and b: mapping
// tables, free queues and allocation counters all follow. Either side may
// be a free slot.
func (h *hotness) applySwap(a, b dram.DSN, now sim.Time) {
	d := h.d
	ha, hb := d.revMap[a], d.revMap[b]
	if ha == dsnFree && hb == dsnFree {
		return // nothing to move
	}
	la, lb := d.codec.DecodeDSN(a), d.codec.DecodeDSN(b)
	gra := d.codec.GlobalRank(la.Channel, la.Rank)
	grb := d.codec.GlobalRank(lb.Channel, lb.Rank)

	switch {
	case ha != dsnFree && hb != dsnFree:
		d.segMap.set(ha, b)
		d.segMap.set(hb, a)
		d.revMap[a], d.revMap[b] = hb, ha
		d.smc.invalidate(ha)
		d.smc.invalidate(hb)
		d.mig.enqueueSwap(a, b, now, "hotness-swap")
		d.st.bytesMigrated.Add(2 * d.cfg.Geometry.SegmentBytes)
	case ha != dsnFree: // move a -> b; slot a becomes free
		d.segMap.set(ha, b)
		d.revMap[b] = ha
		d.revMap[a] = dsnFree
		d.smc.invalidate(ha)
		removeFromFreeQueue(d, grb, b)
		d.free[gra].push(int32(a))
		d.allocated[grb]++
		d.allocated[gra]--
		d.mig.enqueueCopy(a, b, now, "hotness-move")
		d.st.bytesMigrated.Add(d.cfg.Geometry.SegmentBytes)
	default: // hb live: move b -> a; slot b becomes free
		d.segMap.set(hb, a)
		d.revMap[a] = hb
		d.revMap[b] = dsnFree
		d.smc.invalidate(hb)
		removeFromFreeQueue(d, gra, a)
		d.free[grb].push(int32(b))
		d.allocated[gra]++
		d.allocated[grb]--
		d.mig.enqueueCopy(b, a, now, "hotness-move")
		d.st.bytesMigrated.Add(d.cfg.Geometry.SegmentBytes)
	}
}

func removeFromFreeQueue(d *DTL, gr int, dsn dram.DSN) {
	if !d.free[gr].remove(int32(dsn)) {
		panic(fmt.Sprintf("core: dsn %d not found in free queue of rank %d", dsn, gr))
	}
}

// resetChannelPlan restores identity plans and clears access bits for every
// segment of channel c.
func (h *hotness) resetChannelPlan(c int) {
	g := h.d.cfg.Geometry
	for rk := 0; rk < g.RanksPerChannel; rk++ {
		for idx := int64(0); idx < g.SegmentsPerRank(); idx++ {
			s := h.d.codec.EncodeDSN(dram.Loc{Rank: rk, Channel: c, Index: idx})
			h.planned[s] = int32(s)
			h.accessBit[s] = false
		}
	}
}

// onSelfRefreshWake reacts to a rank leaving self-refresh due to an access:
// profiling restarts for the channel (§3.4 "Exit from and Re-entry").
func (h *hotness) onSelfRefreshWake(id dram.RankID, now sim.Time) {
	if !h.enabled {
		return
	}
	h.startWindow(id.Channel, now)
}

// onSegmentFreed clears plan state when a segment is deallocated.
func (h *hotness) onSegmentFreed(dsn dram.DSN) {
	h.accessBit[dsn] = false
	if p := h.plan(dsn); p != dsn {
		h.swapPlan(dsn, p) // restore both entries to identity
	}
}

// onSegmentMoved invalidates plan state for slots touched by a power-down
// drain migration.
func (h *hotness) onSegmentMoved(src, dst dram.DSN) {
	h.onSegmentFreed(src)
	h.onSegmentFreed(dst)
}

// onRankPoweredDown drops any plan state involving a rank entering MPSM and
// restarts the channel's phase machinery.
func (h *hotness) onRankPoweredDown(id dram.RankID, now sim.Time) {
	if !h.enabled {
		return
	}
	g := h.d.cfg.Geometry
	for idx := int64(0); idx < g.SegmentsPerRank(); idx++ {
		s := h.d.codec.EncodeDSN(dram.Loc{Rank: id.Rank, Channel: id.Channel, Index: idx})
		h.onSegmentFreed(s)
	}
	cs := &h.ch[id.Channel]
	if cs.phase == PhaseProfiling && cs.victim == id.Rank {
		h.startWindow(id.Channel, now)
	}
}

// Hotness is the exported read/control surface of the engine.
type Hotness hotness

// Enable turns the hotness-aware self-refresh engine on for all channels.
func (h *Hotness) Enable(now sim.Time) { (*hotness)(h).enable(now) }

// Enabled reports whether the engine is running.
func (h *Hotness) Enabled() bool { return h.enabled }

// Phase reports the channel's current phase.
func (h *Hotness) Phase(channel int) Phase { return h.ch[channel].phase }

// VictimRank reports the channel's current victim rank (-1 when none).
func (h *Hotness) VictimRank(channel int) int { return h.ch[channel].victim }

// Stats returns engine counters.
func (h *Hotness) Stats() HotStats { return h.stats }

// PlannedSlot reports where the content at physical slot dsn would move.
func (h *Hotness) PlannedSlot(dsn dram.DSN) dram.DSN { return (*hotness)(h).plan(dsn) }

// AccessBit reports the CLOCK reference bit of a physical segment.
func (h *Hotness) AccessBit(dsn dram.DSN) bool { return h.accessBit[dsn] }
