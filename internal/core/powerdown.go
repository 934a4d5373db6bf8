package core

import (
	"fmt"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// maybePowerDown implements the rank-level power-down check of §3.3: run at
// every VM deallocation, it powers down as many virtual rank groups as the
// unallocated active capacity allows, draining the least-utilized rank of
// each channel into the remaining active ranks.
func (d *DTL) maybePowerDown(now sim.Time) {
	for d.tryPowerDownOne(now) {
	}
}

// PowerDownIdle runs the §3.3 power-down check outside an allocation event:
// as many virtual rank groups as the free-capacity reserve allows enter
// MPSM. A fresh device starts fully in Standby and normally settles at its
// first allocation or deallocation; rack composition calls this at build
// time so expanders that never receive a VM (the pack policy's cold pool)
// idle at their power floor instead of burning full standby power.
func (d *DTL) PowerDownIdle(now sim.Time) { d.maybePowerDown(now) }

// Park powers down every rank group of an idle expander, including the
// per-channel active floor and capacity reserve maybePowerDown preserves.
// Those guards exist so a live device can absorb allocations and drains
// without waking ranks on the critical path; an expander holding no VM at
// all needs neither, and a rack allocator that drained it wants the whole
// device at the MPSM floor. Parked groups land on the ordinary reactivation
// stack, so a later AllocateVM wakes them on demand (charged as
// demotion-wait, like any MPSM exit). Only valid on an idle device.
func (d *DTL) Park(now sim.Time) error {
	if n := len(d.vms); n != 0 {
		return fmt.Errorf("core: Park with %d live VMs", n)
	}
	for d.parkOne(now) {
	}
	return nil
}

// parkOne powers down one virtual rank group of an idle device, reporting
// whether it did. It is tryPowerDownOne minus the reserve and floor guards;
// with no live VMs there is nothing to drain, which the allocated counters
// re-check defensively.
func (d *DTL) parkOne(now sim.Time) bool {
	g := d.cfg.Geometry
	victims := make([]dram.RankID, g.Channels)
	for ch := 0; ch < g.Channels; ch++ {
		ranks := d.activeRanks(ch)
		if len(ranks) == 0 {
			return false
		}
		victims[ch] = dram.RankID{Channel: ch, Rank: ranks[0]}
	}
	for _, id := range victims {
		if d.allocated[d.codec.GlobalRank(id.Channel, id.Rank)] != 0 {
			panic("core: parkOne found live segments on an idle device")
		}
		if d.dev.State(id) == dram.SelfRefresh {
			d.hot.onSelfRefreshWake(id, now)
			d.st.selfRefreshExits.Inc()
		}
		d.dev.SetState(id, dram.MPSM, now)
		d.hot.onRankPoweredDown(id, now)
	}
	d.poweredDown = append(d.poweredDown, victims)
	d.st.powerDownEvents.Inc()
	return true
}

// tryPowerDownOne powers down one virtual rank group if capacity allows,
// reporting whether it did.
func (d *DTL) tryPowerDownOne(now sim.Time) bool {
	g := d.cfg.Geometry
	rankGroupSegs := int64(g.Channels) * g.SegmentsPerRank()
	if d.activeFreeSegments() < rankGroupSegs*int64(d.cfg.ReserveRankGroups) {
		return false
	}
	// Keep at least one active rank group per channel.
	if len(d.activeRanks(0)) <= 1 {
		return false
	}

	// Virtual rank group (§4.3): per channel, the active rank with the
	// least allocated space is the victim; indices may differ per channel.
	victims := make([]dram.RankID, g.Channels)
	for ch := 0; ch < g.Channels; ch++ {
		ranks := d.sortedRanksByUtilization(ch)
		if len(ranks) <= 1 {
			return false
		}
		victims[ch] = dram.RankID{Channel: ch, Rank: ranks[0]}
	}

	// Verify the remaining active ranks can absorb every live segment of
	// the victims (guaranteed by the capacity check, but kept as a
	// defensive re-check per channel).
	for ch := 0; ch < g.Channels; ch++ {
		victimGR := d.codec.GlobalRank(ch, victims[ch].Rank)
		if d.drainCapacityOn(ch, victims[ch].Rank) < d.allocated[victimGR] {
			return false
		}
	}

	// Drain each victim rank: copy live segments into the most-utilized
	// remaining ranks of the same channel (the allocator's priority rule),
	// preserving per-channel balance.
	for ch := 0; ch < g.Channels; ch++ {
		d.drainRank(victims[ch], now, "powerdown-drain")
	}

	// Power the virtual rank group down.
	for _, id := range victims {
		// A victim in self-refresh must be treated as reactivated first;
		// MPSM entry below accounts the transition either way.
		if d.dev.State(id) == dram.SelfRefresh {
			d.hot.onSelfRefreshWake(id, now)
			d.st.selfRefreshExits.Inc()
		}
		d.dev.SetState(id, dram.MPSM, now)
		d.hot.onRankPoweredDown(id, now)
	}
	d.poweredDown = append(d.poweredDown, victims)
	d.st.powerDownEvents.Inc()
	return true
}

// activeRanks lists non-MPSM rank indices of a channel.
func (d *DTL) activeRanks(ch int) []int {
	var out []int
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		if d.dev.State(dram.RankID{Channel: ch, Rank: rk}) != dram.MPSM {
			out = append(out, rk)
		}
	}
	return out
}

// drainRank copies every live segment off the victim rank into other active
// ranks of the same channel, updating the mapping tables and charging the
// migration engine.
func (d *DTL) drainRank(victim dram.RankID, now sim.Time, reason string) {
	ch := victim.Channel
	victimGR := d.codec.GlobalRank(ch, victim.Rank)

	// Collect live segments on the victim.
	var live []dram.DSN
	for idx := int64(0); idx < d.cfg.Geometry.SegmentsPerRank(); idx++ {
		dsn := d.codec.EncodeDSN(dram.Loc{Rank: victim.Rank, Channel: ch, Index: idx})
		if d.revMap[dsn] != dsnFree {
			live = append(live, dsn)
		}
	}

	for _, src := range live {
		dst := d.takeDrainTarget(ch, victim.Rank)
		d.moveSegment(src, dst, now, reason)
		d.st.segmentsMigrated.Inc()
	}

	// The victim's free queue stays intact (its segments remain physically
	// there, just unallocated); allocated count must now be zero.
	if d.allocated[victimGR] != 0 {
		panic("core: drainRank left live segments behind")
	}
}

// takeDrainTarget pops a free segment on channel ch from the most-utilized
// active rank other than exclude. Callers must have checked capacity
// (drainCapacityOn); running out mid-drain is a model bug and panics.
func (d *DTL) takeDrainTarget(ch, exclude int) dram.DSN {
	dsn, ok := d.takeDrainTargetOn(ch, exclude)
	if !ok {
		panic("core: no drain target available (capacity precondition violated)")
	}
	return dsn
}

// takeDrainTargetOn is takeDrainTarget without the capacity precondition:
// it reports false when no eligible rank (active, non-failed, with free
// space) exists on the channel. The migration verify-after-copy path uses it
// to re-route around a destination rank that faulted mid-copy.
func (d *DTL) takeDrainTargetOn(ch, exclude int) (dram.DSN, bool) {
	best := -1
	var bestAlloc int64 = -1
	for rk := 0; rk < d.cfg.Geometry.RanksPerChannel; rk++ {
		if rk == exclude {
			continue
		}
		if d.dev.State(dram.RankID{Channel: ch, Rank: rk}) == dram.MPSM {
			continue
		}
		gr := d.codec.GlobalRank(ch, rk)
		if d.free[gr].len() == 0 || d.dev.FailedGlobal(gr) {
			continue
		}
		if d.allocated[gr] > bestAlloc {
			best, bestAlloc = gr, d.allocated[gr]
		}
	}
	if best < 0 {
		return 0, false
	}
	dsn := dram.DSN(d.free[best].popFront())
	d.allocated[best]++
	return dsn, true
}

// moveSegment relocates the live segment at src into the free slot dst:
// mapping tables are updated, the SMC entry invalidated, the source slot
// returned to its free queue, and the copy charged to the migration engine.
func (d *DTL) moveSegment(src, dst dram.DSN, now sim.Time, reason string) {
	hsn := d.revMap[src]
	if hsn == dsnFree {
		panic("core: moveSegment on free source")
	}
	if d.revMap[dst] != dsnFree {
		panic("core: moveSegment into live destination")
	}
	d.segMap.set(hsn, dst)
	d.revMap[dst] = hsn
	d.revMap[src] = dsnFree
	d.smc.invalidate(hsn)

	srcLoc := d.codec.DecodeDSN(src)
	srcGR := d.codec.GlobalRank(srcLoc.Channel, srcLoc.Rank)
	d.free[srcGR].push(int32(src))
	d.allocated[srcGR]--

	d.hot.onSegmentMoved(src, dst)
	d.mig.enqueueCopy(src, dst, now, reason)
	d.st.bytesMigrated.Add(d.cfg.Geometry.SegmentBytes)
}

// PoweredDownGroups reports the number of rank groups currently in MPSM.
func (d *DTL) PoweredDownGroups() int { return len(d.poweredDown) }

// ActiveRanksPerChannel reports the number of non-MPSM ranks on channel 0
// (identical across channels by construction).
func (d *DTL) ActiveRanksPerChannel() int { return len(d.activeRanks(0)) }
