package core

import (
	"fmt"
	"math"

	"dtl/internal/dram"
	"dtl/internal/sim"
	"dtl/internal/telemetry"
)

// inflight is one outstanding segment migration on a channel: the register
// set of §4.2 (old DSN, new DSN, progress counter, completion bit). The
// copy runs over [start, end); progress is linear in time because the
// migration queue issues line-sized requests only into idle bus slots.
type inflight struct {
	src, dst dram.DSN
	start    sim.Time
	end      sim.Time
	dur      sim.Time
	retries  int
	// vretries counts verify-after-copy re-routes this segment has taken
	// (destination rank faulted mid-copy), bounded by MigrationRetryLimit.
	vretries int
}

// copyFraction of the window is spent copying lines; the remainder models
// the completion-bit span where the copy is done but the segment mapping
// table and SMC updates are still pending (§4.2).
const copyFraction = 0.9

// progressAt reports the fraction of lines copied by now; 1 means the copy
// finished and the completion bit is set.
func (m *inflight) progressAt(now sim.Time) float64 {
	if now <= m.start {
		return 0
	}
	copyDur := sim.Time(float64(m.dur) * copyFraction)
	if now >= m.start+copyDur || copyDur <= 0 {
		return 1
	}
	return float64(now-m.start) / float64(copyDur)
}

// MigStats counts migration-protocol events.
type MigStats struct {
	Enqueued       int64 // segment copies scheduled
	Completed      int64
	WriteConflicts int64 // foreground writes landing on an in-flight segment
	RoutedToNew    int64 // completion bit set: write sent to the new DSN
	Aborts         int64 // copy aborted and restarted because the line had already migrated
	Requeues       int64 // retry limit exceeded; request moved to queue tail
	BytesQueued    int64
	Verified       int64 // copies whose destination verified healthy at completion
	VerifyFailures int64 // copies that completed onto a failed rank
	Reroutes       int64 // verify failures re-routed to a new destination
	VerifyGiveups  int64 // verify failures left in place (retry limit or no target)
}

// migrator schedules background segment copies per channel and implements
// the §4.2 atomic-migration write protocol. Mapping-table updates are
// applied eagerly by the caller (the simulator does not store data, only
// mappings); the migrator owns the timing windows, the conflict protocol
// and the energy/latency accounting.
type migrator struct {
	d *DTL
	// windows holds each channel's in-flight copies in enqueue order.
	// Starts are serialized, but ends are not sorted: an abort-restart or a
	// tail requeue pushes one window's end past windows queued after it.
	windows [][]*inflight
	// minEnd is a per-channel lower bound on the earliest window end
	// (math.MaxInt64 when the channel is idle): completeUpTo skips a channel
	// while now < minEnd. Exact because a window's end only ever grows.
	minEnd []sim.Time
	// refs counts, per DSN, the in-flight windows naming it as src plus
	// those naming it as dst, so a write to a DSN no copy touches skips the
	// conflict scan. One byte per segment; counts past 255 spill into
	// overflow, which stays nil unless that happens.
	refs      []uint8
	overflow  map[dram.DSN]int
	busyUntil []sim.Time
	busyNs    []sim.Time // accumulated migration bus time per channel
	stats     MigStats
	latency   *telemetry.Timer // scheduled copy duration, registry-backed
	// pool recycles completed windows: drains and swap storms enqueue
	// thousands of copies, and completeUpTo retires them in batches, so the
	// register-set structs cycle instead of churning the heap.
	pool []*inflight
}

func newMigrator(d *DTL) *migrator {
	ch := d.cfg.Geometry.Channels
	m := &migrator{
		d:         d,
		windows:   make([][]*inflight, ch),
		minEnd:    make([]sim.Time, ch),
		refs:      make([]uint8, d.cfg.Geometry.TotalSegments()),
		busyUntil: make([]sim.Time, ch),
		busyNs:    make([]sim.Time, ch),
		latency:   d.reg.Timer("core.migration.latency_ns", telemetry.DefaultTimerBoundsNs()),
	}
	for c := range m.minEnd {
		m.minEnd[c] = math.MaxInt64
	}
	return m
}

// ref records one more in-flight window naming dsn.
func (m *migrator) ref(dsn dram.DSN) {
	if m.refs[dsn] < math.MaxUint8 {
		m.refs[dsn]++
		return
	}
	if m.overflow == nil {
		m.overflow = make(map[dram.DSN]int)
	}
	m.overflow[dsn]++
}

// unref drops one in-flight window naming dsn.
func (m *migrator) unref(dsn dram.DSN) {
	if m.refs[dsn] == math.MaxUint8 {
		if n := m.overflow[dsn]; n > 0 {
			if n == 1 {
				delete(m.overflow, dsn)
			} else {
				m.overflow[dsn] = n - 1
			}
			return
		}
	}
	m.refs[dsn]--
}

// refCount reports how many in-flight windows name dsn (src and dst roles
// counted separately).
func (m *migrator) refCount(dsn dram.DSN) int {
	n := int(m.refs[dsn])
	if n == math.MaxUint8 {
		n += m.overflow[dsn]
	}
	return n
}

// enqueueCopy schedules the copy of one segment from src to dst (same
// channel) using the channel's idle bandwidth; copies on a channel are
// serialized behind each other.
func (m *migrator) enqueueCopy(src, dst dram.DSN, now sim.Time, reason string) {
	loc := m.d.codec.DecodeDSN(src)
	ch := loc.Channel
	dur := m.d.ctrl.MigrationTime(ch, m.d.cfg.Geometry.SegmentBytes, now)
	start := now
	if m.busyUntil[ch] > start {
		start = m.busyUntil[ch]
	}
	var w *inflight
	if n := len(m.pool); n > 0 {
		w = m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
	} else {
		w = new(inflight)
	}
	*w = inflight{src: src, dst: dst, start: start, end: start + dur, dur: dur}
	m.windows[ch] = append(m.windows[ch], w)
	if w.end < m.minEnd[ch] {
		m.minEnd[ch] = w.end
	}
	m.ref(src)
	m.ref(dst)
	m.busyUntil[ch] = w.end
	m.busyNs[ch] += dur
	m.stats.Enqueued++
	m.stats.BytesQueued += m.d.cfg.Geometry.SegmentBytes
	m.latency.Observe(float64(w.end - now))
	m.d.tracer.Migration(ch, int64(src), int64(dst), reason, w.start, w.end)
	if m.d.ledger != nil {
		// Charge the copy window (latency) and the active energy of moving
		// one segment to the destination rank, attributed to the VM whose
		// data is moving (SystemVM for unowned segments).
		dloc := m.d.codec.DecodeDSN(dst)
		gr := m.d.codec.GlobalRank(dloc.Channel, dloc.Rank)
		vm := telemetry.SystemVM
		if hsn := m.d.revMap[dst]; hsn != dsnFree {
			vm = m.d.ownerOf(hsn)
		} else if hsn := m.d.revMap[src]; hsn != dsnFree {
			vm = m.d.ownerOf(hsn)
		}
		m.d.chargeSpan(vm, gr, causeForReason(reason), w.start, w.end, m.d.migEnergyPerSeg)
	}
}

// causeForReason maps a migration reason tag to its attribution cause:
// power-down drains are the demotion machinery, verify re-routes and
// retirement drains are the fault path, and everything else (hotness swaps
// and moves, manual migrations) is a plain background copy.
func causeForReason(reason string) telemetry.Cause {
	switch reason {
	case "powerdown-drain":
		return telemetry.CauseDemotionWait
	case "verify-reroute", "retire":
		return telemetry.CauseFaultRetry
	default:
		return telemetry.CauseMigrationCopy
	}
}

// enqueueSwap schedules a bidirectional exchange (two segment copies).
func (m *migrator) enqueueSwap(a, b dram.DSN, now sim.Time, reason string) {
	m.enqueueCopy(a, b, now, reason)
	m.enqueueCopy(b, a, now, reason)
}

// completeUpTo retires windows that finished by now, verifying each copy
// against its destination rank: a copy that completed onto a rank that
// failed mid-flight is re-routed to a fresh destination (bounded by
// MigrationRetryLimit), so data never strands on degrading media.
//
// A channel is scanned only once now reaches its minEnd bound; the scan
// then visits every window, because finished windows need not form a
// prefix of the slice, and recomputes the bound from the windows it keeps.
func (m *migrator) completeUpTo(now sim.Time) {
	type reroute struct {
		dst      dram.DSN
		vretries int
	}
	for ch := range m.windows {
		if now < m.minEnd[ch] {
			continue
		}
		ws := m.windows[ch]
		var failed []reroute
		keep := ws[:0]
		minEnd := sim.Time(math.MaxInt64)
		for _, w := range ws {
			if w.end > now {
				keep = append(keep, w)
				if w.end < minEnd {
					minEnd = w.end
				}
				continue
			}
			m.unref(w.src)
			m.unref(w.dst)
			m.stats.Completed++
			loc := m.d.codec.DecodeDSN(w.dst)
			if m.d.dev.FailedGlobal(m.d.codec.GlobalRank(loc.Channel, loc.Rank)) {
				m.stats.VerifyFailures++
				failed = append(failed, reroute{dst: w.dst, vretries: w.vretries})
			} else {
				m.stats.Verified++
			}
			// The reroute data above is copied by value, so the window can
			// be recycled before the re-route pass runs.
			m.pool = append(m.pool, w)
		}
		m.windows[ch] = keep
		m.minEnd[ch] = minEnd
		// Re-routes are applied after the compaction above: moveSegment
		// enqueues a fresh copy, which appends to m.windows[ch] and lowers
		// minEnd — doing that mid-compaction would alias the slice being
		// rewritten.
		for _, r := range failed {
			if m.d.revMap[r.dst] == dsnFree {
				continue // already moved off or freed; nothing to save
			}
			if r.vretries >= m.d.cfg.MigrationRetryLimit {
				m.stats.VerifyGiveups++
				continue
			}
			loc := m.d.codec.DecodeDSN(r.dst)
			nd, ok := m.d.takeDrainTargetOn(loc.Channel, loc.Rank)
			if !ok {
				// No healthy rank with free space on this channel; the data
				// stays readable in degraded mode until retirement drains it.
				m.stats.VerifyGiveups++
				continue
			}
			m.d.moveSegment(r.dst, nd, now, "verify-reroute")
			nws := m.windows[ch]
			nws[len(nws)-1].vretries = r.vretries + 1
			m.stats.Reroutes++
		}
	}
}

// check verifies the migrator's indexes: minEnd bounds every window end on
// its channel, and refs counts exactly the windows naming each DSN.
func (m *migrator) check() error {
	want := make(map[dram.DSN]int)
	for ch, ws := range m.windows {
		for _, w := range ws {
			if w.end < m.minEnd[ch] {
				return fmt.Errorf("invariant: channel %d window ends at %d before minEnd %d", ch, w.end, m.minEnd[ch])
			}
			want[w.src]++
			want[w.dst]++
		}
	}
	for dsn := range m.refs {
		if got := m.refCount(dram.DSN(dsn)); got != want[dram.DSN(dsn)] {
			return fmt.Errorf("invariant: dsn %d has ref count %d, %d windows name it", dsn, got, want[dram.DSN(dsn)])
		}
	}
	for dsn, n := range m.overflow {
		if n <= 0 || m.refs[dsn] != math.MaxUint8 {
			return fmt.Errorf("invariant: dsn %d overflow %d with base count %d", dsn, n, m.refs[dsn])
		}
	}
	return nil
}

// onForegroundAccess applies the §4.2 write protocol when a foreground
// access lands on a segment with an in-flight migration:
//
//   - reads always proceed (the source copy remains valid until the
//     mapping update);
//   - a write with the completion bit set (copy finished, tables pending)
//     is routed to the new DSN;
//   - a write to a line not yet copied proceeds at the old DSN;
//   - a write to an already-copied line aborts the migration, which
//     restarts; after MigrationRetryLimit aborts the request is moved to
//     the tail of the channel's migration queue.
//
// ch is dsn's channel, already decoded by the caller. A write to a DSN that
// no in-flight window names returns before the scan; otherwise the scan
// visits the channel's windows in enqueue order, so aborts and requeues
// happen in the same order as a full scan.
func (m *migrator) onForegroundAccess(dsn dram.DSN, ch int, write bool, now sim.Time) {
	m.completeUpTo(now)
	if !write || m.refs[dsn] == 0 {
		return
	}
	for _, w := range m.windows[ch] {
		if w.src != dsn && w.dst != dsn {
			continue
		}
		if now < w.start {
			continue // queued but not copying yet
		}
		m.stats.WriteConflicts++
		m.d.tracer.WriteConflict(ch, now)
		frac := w.progressAt(now)
		if frac >= 1 {
			// Completion bit set: copy done, mapping update pending.
			m.stats.RoutedToNew++
			continue
		}
		// Model the written line's position as uniformly distributed over
		// the segment; deterministic hash of (dsn, now) keeps replays
		// reproducible.
		linePos := float64(uint64(int64(dsn)*2654435761+int64(now))%1024) / 1024.0
		if linePos >= frac {
			continue // line not copied yet: write the old location
		}
		// Line already migrated: abort and restart the copy.
		m.stats.Aborts++
		w.retries++
		if w.retries > m.d.cfg.MigrationRetryLimit {
			// Re-queue at the tail of the channel's migration queue.
			m.stats.Requeues++
			w.retries = 0
			start := m.busyUntil[ch]
			if start < now {
				start = now
			}
			w.start = start
			w.end = start + w.dur
			m.busyUntil[ch] = w.end
			m.busyNs[ch] += w.dur
			m.chargeStall(w, now)
			continue
		}
		w.start = now
		w.end = now + w.dur
		if m.busyUntil[ch] < w.end {
			m.busyUntil[ch] = w.end
		}
		m.busyNs[ch] += w.dur
		m.chargeStall(w, now)
	}
}

// chargeStall books the delay a foreground write-conflict added to an
// in-flight migration (abort-restart or tail requeue) as migration-stall:
// the span runs from the conflicting write to the rescheduled window's new
// end. The copy energy was charged at enqueue, so stalls carry none.
func (m *migrator) chargeStall(w *inflight, now sim.Time) {
	if m.d.ledger == nil {
		return
	}
	dloc := m.d.codec.DecodeDSN(w.dst)
	gr := m.d.codec.GlobalRank(dloc.Channel, dloc.Rank)
	vm := telemetry.SystemVM
	if hsn := m.d.revMap[w.dst]; hsn != dsnFree {
		vm = m.d.ownerOf(hsn)
	} else if hsn := m.d.revMap[w.src]; hsn != dsnFree {
		vm = m.d.ownerOf(hsn)
	}
	m.d.chargeSpan(vm, gr, telemetry.CauseMigrationStall, now, w.end, 0)
}

// Migrator is the exported statistics surface of the migration engine.
type Migrator migrator

// Stats returns protocol counters.
func (m *Migrator) Stats() MigStats { return m.stats }

// Outstanding reports in-flight migrations across all channels.
func (m *Migrator) Outstanding() int {
	n := 0
	for _, ws := range m.windows {
		n += len(ws)
	}
	return n
}

// BusyUntil reports when channel ch's migration queue drains.
func (m *Migrator) BusyUntil(ch int) sim.Time { return m.busyUntil[ch] }

// BusyNs reports the total migration bus time charged to channel ch.
func (m *Migrator) BusyNs(ch int) sim.Time { return m.busyNs[ch] }

// TotalBusyNs sums migration bus time over all channels.
func (m *Migrator) TotalBusyNs() sim.Time {
	var t sim.Time
	for _, b := range m.busyNs {
		t += b
	}
	return t
}
