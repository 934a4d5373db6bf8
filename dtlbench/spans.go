package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// spanID names one kind of layer call dtlbench times from outside.
type spanID int

const (
	spTraceNext spanID = iota
	spTraceNew
	spCoreAllocate
	spCoreAccess
	spCoreTick
	spMemctrlAccess
	spDramCodec
	spRackPlace
	spRackFree
	spRackConsolidate
	spRackAccess
	spVmtraceSchedule
	numSpans
)

// spanDefs gives each span its name and the benchmark phase that issues it
// (the span that causes it: every layer call is made by the benchmark's set-up
// or by one step of its run loop).
var spanDefs = [numSpans]struct{ name, parent string }{
	spTraceNext:       {"trace.next", "bench.step"},
	spTraceNew:        {"trace.new_generator", "bench.step"},
	spCoreAllocate:    {"core.allocate_vm", "bench.setup"},
	spCoreAccess:      {"core.access", "bench.step"},
	spCoreTick:        {"core.tick", "bench.step"},
	spMemctrlAccess:   {"memctrl.access", "bench.step"},
	spDramCodec:       {"dram.codec", "bench.step"},
	spRackPlace:       {"rack.place", "bench.step"},
	spRackFree:        {"rack.free", "bench.step"},
	spRackConsolidate: {"rack.consolidate", "bench.step"},
	spRackAccess:      {"rack.access", "bench.step"},
	spVmtraceSchedule: {"vmtrace.schedule", "bench.setup"},
}

// spanAgg aggregates every span of one kind: span count, layer calls the
// spans covered, total host time, and a log2 histogram of span durations
// (bucket b holds durations in [2^(b-1), 2^b) ns).
type spanAgg struct {
	Count   int64     `json:"count"`
	Calls   int64     `json:"calls"`
	TotalNs int64     `json:"total_ns"`
	Hist    [40]int64 `json:"log2_ns_hist"`
}

// tracer times layer calls. A nil *tracer is the untraced run: begin and
// end return at once, so the end-to-end run pays one predictable branch per
// span and reads no clock.
//
// One clock read costs about as much as a trace.Next or memctrl.Access
// call (tens of ns), so a per-access layer's span covers one batch of
// calls (a step's worth, or one VM's burst), and its per-call time is the
// span total over the calls it covered. Rare calls get one span each.
type tracer struct {
	aggs [numSpans]spanAgg
	// inRun is set while the run loop executes; runCoveredNs sums the span
	// time recorded then, the part of run_s attributed to some layer.
	inRun        bool
	runCoveredNs int64
}

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span of kind id opened at t0 that covered calls layer calls.
func (t *tracer) end(id spanID, t0 time.Time, calls int) {
	if t == nil {
		return
	}
	d := time.Since(t0).Nanoseconds()
	a := &t.aggs[id]
	a.Count++
	a.Calls += int64(calls)
	a.TotalNs += d
	b := bits.Len64(uint64(d))
	if b >= len(a.Hist) {
		b = len(a.Hist) - 1
	}
	a.Hist[b]++
	if t.inRun {
		t.runCoveredNs += d
	}
}

// merge folds o into t.
func (t *tracer) merge(o *tracer) {
	for i := range t.aggs {
		a, b := &t.aggs[i], &o.aggs[i]
		a.Count += b.Count
		a.Calls += b.Calls
		a.TotalNs += b.TotalNs
		for k := range a.Hist {
			a.Hist[k] += b.Hist[k]
		}
	}
	t.runCoveredNs += o.runCoveredNs
}

// meanNs is the mean host time of one call of kind id, 0 when the workload
// never makes that call.
func (t *tracer) meanNs(id spanID) float64 {
	a := t.aggs[id]
	if a.Calls == 0 {
		return 0
	}
	return float64(a.TotalNs) / float64(a.Calls)
}

// write stores the aggregated spans as one JSON document at path.
func (t *tracer) write(path, workload string, seed int64, passes int) error {
	type entry struct {
		Name   string `json:"name"`
		Parent string `json:"parent"`
		spanAgg
	}
	doc := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Passes   int     `json:"passes"`
		Spans    []entry `json:"spans"`
	}{Workload: workload, Seed: seed, Passes: passes}
	for i, a := range t.aggs {
		if a.Count > 0 {
			doc.Spans = append(doc.Spans, entry{spanDefs[i].name, spanDefs[i].parent, a})
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
