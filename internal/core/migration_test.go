package core

import (
	"sort"
	"testing"

	"dtl/internal/dram"
	"dtl/internal/sim"
)

// migSetup produces a DTL with an in-flight drain migration and returns the
// HPA of a segment that is being migrated plus the time migration started.
func migSetup(t *testing.T) (*DTL, dram.HPA, sim.Time) {
	t.Helper()
	d := newTestDTL(t)
	mustAlloc(t, d, 1, 0, 16*dram.MiB, 0)
	mustAlloc(t, d, 2, 0, 480*dram.MiB, 0)
	mustAlloc(t, d, 3, 0, 16*dram.MiB, 0)
	start := sim.Time(1000)
	mustDealloc(t, d, 2, start) // drains VM1's rank: VM1 segments migrate
	if d.Migrator().Outstanding() == 0 {
		t.Fatal("setup: no outstanding migrations")
	}
	addrs, err := d.VMAddresses(1)
	if err != nil {
		t.Fatal(err)
	}
	return d, addrs[0], start
}

func TestWriteConflictDuringMigration(t *testing.T) {
	d, hpa, start := migSetup(t)
	before := d.Migrator().Stats()
	// Hammer writes into the migrating segment mid-copy.
	now := start + 10*sim.Microsecond
	for i := 0; i < 50; i++ {
		if _, err := d.Access(hpa+dram.HPA(i*64), true, now); err != nil {
			t.Fatal(err)
		}
		now += sim.Microsecond
	}
	after := d.Migrator().Stats()
	if after.WriteConflicts <= before.WriteConflicts {
		t.Fatal("no write conflicts detected during migration")
	}
}

func TestAbortAndRequeue(t *testing.T) {
	d, hpa, start := migSetup(t)
	// Enough conflicting writes must eventually trip aborts, and with the
	// retry limit of 3, requeues.
	now := start + 50*sim.Microsecond
	for i := 0; i < 2000; i++ {
		if _, err := d.Access(hpa+dram.HPA((i%1024)*64), true, now); err != nil {
			t.Fatal(err)
		}
		now += 2 * sim.Microsecond
	}
	st := d.Migrator().Stats()
	if st.Aborts == 0 {
		t.Fatal("no aborts despite sustained write conflicts")
	}
	if st.Requeues == 0 {
		t.Fatalf("no requeues after %d aborts (limit %d)", st.Aborts, d.Config().MigrationRetryLimit)
	}
}

func TestReadsNeverConflict(t *testing.T) {
	d, hpa, start := migSetup(t)
	before := d.Migrator().Stats()
	now := start + 10*sim.Microsecond
	for i := 0; i < 100; i++ {
		if _, err := d.Access(hpa+dram.HPA(i*64), false, now); err != nil {
			t.Fatal(err)
		}
		now += sim.Microsecond
	}
	after := d.Migrator().Stats()
	if after.WriteConflicts != before.WriteConflicts {
		t.Fatal("reads counted as write conflicts")
	}
	if after.Aborts != before.Aborts {
		t.Fatal("reads caused aborts")
	}
}

func TestRoutedToNewAfterCopyCompletes(t *testing.T) {
	d, hpa, _ := migSetup(t)
	// Locate the in-flight window of hpa's segment and write inside the
	// completion-bit span: the copy is done but the mapping update has not
	// retired, so the write must be routed to the new DSN (§4.2).
	hsn := d.codec.HostSegmentOf(hpa)
	dst, _ := d.segMap.get(hsn)
	mm := (*migrator)(d.Migrator())
	var w *inflight
	for _, ws := range mm.windows {
		for _, cand := range ws {
			if cand.dst == dst {
				w = cand
			}
		}
	}
	if w == nil {
		t.Fatal("no in-flight window for the migrated segment")
	}
	now := w.start + sim.Time(float64(w.dur)*(copyFraction+0.05))
	if _, err := d.Access(hpa, true, now); err != nil {
		t.Fatal(err)
	}
	st := d.Migrator().Stats()
	if st.RoutedToNew != 1 {
		t.Fatalf("routed-to-new = %d, want 1", st.RoutedToNew)
	}
	if st.Aborts != 0 {
		t.Fatalf("completion-bit write caused %d aborts", st.Aborts)
	}
}

func TestMigrationsRetire(t *testing.T) {
	d, _, start := migSetup(t)
	m := d.Migrator()
	var endMax sim.Time
	for ch := 0; ch < d.Config().Geometry.Channels; ch++ {
		if m.BusyUntil(ch) > endMax {
			endMax = m.BusyUntil(ch)
		}
	}
	d.Tick(endMax + 1)
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after all windows ended", m.Outstanding())
	}
	if got := m.Stats().Completed; got != m.Stats().Enqueued {
		t.Fatalf("completed %d != enqueued %d", got, m.Stats().Enqueued)
	}
	_ = start
}

func TestMigrationSerializedPerChannel(t *testing.T) {
	// Total busy time on a channel must equal the sum of durations
	// (sequential issue), and windows must not overlap.
	d, _, _ := migSetup(t)
	mm := (*migrator)(d.Migrator())
	for ch, ws := range mm.windows {
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				t.Fatalf("channel %d windows overlap: %+v then %+v", ch, ws[i-1], ws[i])
			}
		}
	}
}

func TestProgressAt(t *testing.T) {
	w := inflight{start: 100, end: 200, dur: 100}
	if w.progressAt(50) != 0 {
		t.Error("progress before start")
	}
	// The copy occupies copyFraction of the window; at the window midpoint
	// the copy is 50/(100*0.9) done.
	if got, want := w.progressAt(150), 50.0/90.0; got != want {
		t.Errorf("progress at midpoint = %v, want %v", got, want)
	}
	// Past the copy span, the completion bit is set.
	if w.progressAt(195) != 1 {
		t.Error("completion-bit span should report progress 1")
	}
	if w.progressAt(250) != 1 {
		t.Error("progress after end")
	}
}

// TestCompleteUpToRetiresOutOfOrderWindows forces a tail requeue so that a
// window with the channel's latest end sits ahead of windows that finish
// before it, then checks that completeUpTo retires exactly the windows with
// end <= now, against a brute-force count, at every window end.
func TestCompleteUpToRetiresOutOfOrderWindows(t *testing.T) {
	d, _, _ := migSetup(t)
	m := d.mig
	ch := -1
	for c, ws := range m.windows {
		if len(ws) >= 2 {
			ch = c
			break
		}
	}
	if ch < 0 {
		t.Fatal("setup: no channel with two queued windows")
	}
	w := m.windows[ch][0]
	w.retries = d.cfg.MigrationRetryLimit
	for now := w.start + 1; m.stats.Requeues == 0; now += 7 {
		if now >= w.start+sim.Time(float64(w.dur)*copyFraction) {
			t.Fatal("no write landed on an already-copied line")
		}
		m.onForegroundAccess(w.src, ch, true, now)
	}
	if w.end != m.busyUntil[ch] || m.windows[ch][0] != w {
		t.Fatal("requeued window should keep its slot and take the channel's latest end")
	}
	if next := m.windows[ch][1]; next.end >= w.end {
		t.Fatalf("windows still ordered by end: %d then %d", w.end, next.end)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var ends []sim.Time
	for _, ws := range m.windows {
		for _, w := range ws {
			ends = append(ends, w.end-1, w.end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for _, now := range ends {
		want, left := 0, 0
		for _, ws := range m.windows {
			for _, w := range ws {
				if w.end <= now {
					want++
				} else {
					left++
				}
			}
		}
		before := m.stats.Completed
		m.completeUpTo(now)
		if got := int(m.stats.Completed - before); got != want {
			t.Fatalf("completeUpTo(%d) retired %d windows, want %d", now, got, want)
		}
		if got := (*Migrator)(m).Outstanding(); got != left {
			t.Fatalf("completeUpTo(%d) left %d windows, want %d", now, got, left)
		}
		for _, ws := range m.windows {
			for _, w := range ws {
				if w.end <= now {
					t.Fatalf("completeUpTo(%d) kept a window ending at %d", now, w.end)
				}
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if (*Migrator)(m).Outstanding() != 0 {
		t.Fatal("windows left after the last end")
	}
}

// TestRefCountOverflow queues more copies naming one DSN than a byte can
// count: the spill map must keep the count exact in both directions.
func TestRefCountOverflow(t *testing.T) {
	d := newTestDTL(t)
	m := d.mig
	const n = 300
	src, dst := dram.DSN(0), dram.DSN(1)
	for i := 0; i < n; i++ {
		m.enqueueCopy(src, dst, 0, "test")
	}
	if got := m.refCount(src); got != n {
		t.Fatalf("ref count = %d, want %d", got, n)
	}
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	m.completeUpTo(m.busyUntil[d.codec.DecodeDSN(src).Channel])
	if m.refCount(src) != 0 || m.refCount(dst) != 0 || len(m.overflow) != 0 {
		t.Fatalf("counts after retiring all: %d, %d, overflow %v", m.refCount(src), m.refCount(dst), m.overflow)
	}
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
}
