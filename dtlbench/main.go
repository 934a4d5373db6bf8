// Command dtlbench is the repository benchmark: it replays three seeded
// workloads against the simulator's layers from a single goroutine, times
// them from outside, checks the simulated results, and prints every metric
// with its unit followed by one JSON result line.
//
//	bash dtlbench/run.sh --workload sr-replay --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced passes; --trace 1
// alternates untraced and traced passes and reports the per-layer metrics.
// README.md gives each workload's rationale and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

const (
	// defaultSeed is the seed the benchmark is developed against;
	// heldOutSeed is kept out of tuning and re-checks every gate.
	defaultSeed = 1
	heldOutSeed = 20231017

	// setup_s is the median of at least minSetups set-ups; quick set-ups
	// are repeated until setupBudgetS seconds or maxSetups samples.
	minSetups    = 5
	maxSetups    = 200
	setupBudgetS = 0.5
)

// e2eMetrics are printed by --trace 0, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"accesses_per_s", "1/s"},
	{"step_ms_p50", "ms"},
	{"step_ms_tail", "ms"},
	{"peak_heap_mb", "MB"},
	{"sim_mean_latency_ns", "ns"},
}

// layerMetrics are printed by --trace 1, in this order. Host times are
// means per call, timed from outside the layer; a workload that never
// calls a layer reports 0 for it.
var layerMetrics = []metricDef{
	{"trace.next_ns", "ns/call"},
	{"trace.new_generator_us", "us/call"},
	{"core.access_ns", "ns/call"},
	{"core.mig.outstanding_mean", "count"},
	{"core.mig.outstanding_peak", "count"},
	{"core.smc.l1_hit_ratio", "ratio"},
	{"core.smc.l2_hit_ratio", "ratio"},
	{"core.smc.walks_per_access", "ratio"},
	{"memctrl.access_ns", "ns/call"},
	{"memctrl.row_hit_ratio", "ratio"},
	{"dram.codec_ns", "ns/call"},
	{"rack.place_ms", "ms/call"},
	{"rack.free_ms", "ms/call"},
	{"rack.consolidate_ms", "ms/call"},
	{"rack.access_ns", "ns/call"},
	{"rack.cross_access_share", "share"},
	{"rack.vm_migrations", "count"},
	{"vmtrace.schedule_ms", "ms/call"},
	{"telemetry.ledger_spans", "count"},
	{"core.mig.enqueued", "count"},
	{"core.mig.write_conflicts", "count"},
	{"core.hot.sr_enters", "count"},
	{"core.powerdown.events", "count"},
	{"dram.residency.self_refresh", "share"},
	{"dram.residency.mpsm", "share"},
	{"sim_energy_saving", "share"},
	{"allocs_per_access", "count"},
	{"failed_share", "share"},
	{"bench.tracing_overhead", "share"},
	{"bench.unattributed_share", "share"},
}

// stepClock records the host time of each step of a pass and samples the
// live heap at step boundaries. It reads the clock once per step, never
// per layer call.
type stepClock struct {
	last     time.Time
	stepsNs  []int64
	heapPeak uint64
	sample   []metrics.Sample
}

func newStepClock(steps int) *stepClock {
	return &stepClock{
		stepsNs: make([]int64, 0, steps),
		sample:  []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

func (c *stepClock) step() {
	now := time.Now()
	c.stepsNs = append(c.stepsNs, now.Sub(c.last).Nanoseconds())
	c.last = now
	c.sampleHeap()
}

func (c *stepClock) sampleHeap() {
	metrics.Read(c.sample)
	if v := c.sample[0].Value.Uint64(); v > c.heapPeak {
		c.heapPeak = v
	}
}

// heapAllocs reads the cumulative heap allocation count, tiny objects
// included, without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// passStats is one pass: host timings plus the model values it produced.
type passStats struct {
	traced  bool
	setupNs int64
	runNs   int64
	stepsMs []float64
	allocs  uint64
	heap    uint64
	m       model
	state   string
	tr      *tracer
}

// onePass sets up a fresh instance of w, runs it, and applies its gates.
// Garbage from earlier passes is collected first, outside every timed
// region, so one pass's heap does not bill the next.
func onePass(w workload, seed int64, small, traced bool) (passStats, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	ps := passStats{traced: traced, tr: tr}
	runtime.GC()
	t0 := time.Now()
	p, err := w.setup(seed, small, tr)
	ps.setupNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return ps, fmt.Errorf("%s setup: %w", w.name, err)
	}
	clk := newStepClock(w.steps)
	if tr != nil {
		tr.inRun = true
	}
	a0 := heapAllocs()
	clk.last = time.Now()
	start := clk.last
	err = p.run(tr, clk)
	ps.runNs = time.Since(start).Nanoseconds()
	ps.allocs = heapAllocs() - a0
	if tr != nil {
		tr.inRun = false
	}
	if err != nil {
		return ps, err
	}
	ps.m, ps.state, err = p.finish()
	// The live heap after a collection with the pass still reachable is
	// the simulator state the pass built.
	runtime.GC()
	clk.sampleHeap()
	runtime.KeepAlive(p)
	ps.heap = clk.heapPeak
	for _, ns := range clk.stepsNs {
		ps.stepsMs = append(ps.stepsMs, float64(ns)/1e6)
	}
	return ps, err
}

// digest hashes every model value of a pass.
func digest(m model) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m)
	return h.Sum64()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	profile  bool
	out      string
	small    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceMode int
	fs.StringVar(&o.workload, "workload", "", "workload: sr-replay, rack-churn or ctrl-replay")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 35, "run passes for at most about this many seconds (at least three untraced passes)")
	fs.IntVar(&traceMode, "trace", 0, "0: end-to-end metrics of untraced passes; 1: per-layer metrics of traced passes")
	fs.BoolVar(&o.profile, "profile", false, "write a CPU profile of the passes and print its flat time by package")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for span dumps and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceMode != 0 && traceMode != 1 {
		fmt.Fprintf(stderr, "dtlbench: --trace must be 0 or 1, got %d\n", traceMode)
		return 2
	}
	o.traced = traceMode == 1
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "dtlbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "dtlbench: --seconds must be at least 1, got %d\n", o.seconds)
		return 2
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "dtlbench: FAIL: %v\n", err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "dtlbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

// measure runs passes of w while the next one is expected to end within
// o.seconds (at least three untraced passes, or one untraced and one traced
// pass under --trace 1), checks every gate, and computes the reported
// metrics.
func measure(w workload, o options, stdout io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	if o.profile {
		stop, err := startProfile(o.out, w.name)
		if err != nil {
			return res, err
		}
		defer func() {
			if err := stop(stdout); err != nil {
				fmt.Fprintf(stdout, "profile: %v\n", err)
			}
		}()
	}
	var passes []passStats
	begin := time.Now()
	deadline := time.Duration(o.seconds) * time.Second
	for i := 0; ; i++ {
		traced := o.traced && i%2 == 1
		start := time.Now()
		ps, err := onePass(w, o.seed, o.small, traced)
		res.Attempted += ps.m.Accesses + ps.m.Placements
		res.Failed += ps.m.Refused
		if err != nil {
			if res.Attempted == 0 {
				res.Attempted = 1
			}
			return res, err
		}
		passes = append(passes, ps)
		// Stop before a pass that would end past the deadline, judging
		// its length by the one just run.
		enough := len(passes) >= 3 || o.traced && len(passes) >= 2
		if enough && time.Since(begin)+time.Since(start) > deadline {
			break
		}
	}

	// Gate: every pass, traced or not, must produce the same model.
	want := digest(passes[0].m)
	for i, ps := range passes {
		if d := digest(ps.m); d != want {
			return res, fmt.Errorf("digest of pass %d (traced=%v) is %016x, pass 0 gave %016x: the run is not deterministic",
				i, ps.traced, d, want)
		}
	}

	var untraced, traced []passStats
	for _, ps := range passes {
		if ps.traced {
			traced = append(traced, ps)
		} else {
			untraced = append(untraced, ps)
		}
	}

	m := passes[0].m
	for i, ps := range passes {
		fmt.Fprintf(stdout, "pass %d: traced=%v setup %.3f ms, run %.3f s\n",
			i, ps.traced, float64(ps.setupNs)/1e6, float64(ps.runNs)/1e9)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d passes (%d traced) in %.1f s, model digest %016x\n",
		w.name, o.seed, len(passes), len(traced), time.Since(begin).Seconds(), want)
	fmt.Fprintf(stdout, "state: %s\n", passes[0].state)

	var vals map[string]float64
	if o.traced {
		all := &tracer{}
		for _, ps := range traced {
			all.merge(ps.tr)
		}
		vals = layerValues(m, all, untraced, traced)
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := all.write(path, w.name, o.seed, len(traced)); err != nil {
			return res, err
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		emit(stdout, res.Metrics, layerMetrics, vals)
	} else {
		setups, err := setupSamples(w, o, untraced)
		if err != nil {
			return res, err
		}
		var tailP int
		if vals, tailP, err = e2eValues(m, untraced, setups); err != nil {
			return res, err
		}
		fmt.Fprintf(stdout, "step_ms_tail is p%d, the highest percentile with at least 10 of a pass's %d steps beyond it, over the %d steps of %d passes; setup_s over %d set-ups\n",
			tailP, len(untraced[0].stepsMs), len(untraced)*len(untraced[0].stepsMs), len(untraced), len(setups))
		emit(stdout, res.Metrics, e2eMetrics, vals)
	}
	res.Correct = true
	return res, nil
}

// setupSamples returns the set-up times of the untraced passes plus extra
// untraced set-ups, at least minSetups in all, and more while they add up
// to less than setupBudgetS seconds (up to maxSetups).
func setupSamples(w workload, o options, passes []passStats) ([]float64, error) {
	var setups []float64
	sum := 0.0
	for _, ps := range passes {
		setups = append(setups, float64(ps.setupNs)/1e9)
		sum += setups[len(setups)-1]
	}
	for len(setups) < minSetups || sum < setupBudgetS && len(setups) < maxSetups {
		runtime.GC()
		t0 := time.Now()
		_, err := w.setup(o.seed, o.small, nil)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, d)
		sum += d
	}
	return setups, nil
}

func emit(stdout io.Writer, out map[string]metricValue, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		out[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
}

// e2eValues computes the end-to-end metrics: medians over untraced passes
// of each pass's figure, and step percentiles over the steps of all those
// passes pooled. The tail percentile follows from the steps in one pass, so
// it does not depend on how many passes fit in a run.
func e2eValues(m model, ps []passStats, setups []float64) (map[string]float64, int, error) {
	var runS, rate, heap, steps []float64
	tailP, err := tailPercentile(len(ps[0].stepsMs))
	if err != nil {
		return nil, 0, err
	}
	for _, p := range ps {
		runS = append(runS, float64(p.runNs)/1e9)
		rate = append(rate, float64(p.m.Accesses)/(float64(p.runNs)/1e9))
		heap = append(heap, float64(p.heap)/(1<<20))
		steps = append(steps, p.stepsMs...)
	}
	return map[string]float64{
		"setup_s":             median(setups),
		"run_s":               median(runS),
		"accesses_per_s":      median(rate),
		"step_ms_p50":         nearestRank(steps, 50),
		"step_ms_tail":        nearestRank(steps, tailP),
		"peak_heap_mb":        median(heap),
		"sim_mean_latency_ns": m.meanLatNs(),
	}, tailP, nil
}

// layerValues computes the per-layer metrics: host times from the traced
// passes' spans, allocation counts from the untraced passes, and the model
// counters common to all passes.
func layerValues(m model, all *tracer, untraced, traced []passStats) map[string]float64 {
	var tracedRun, untracedRun []float64
	var tracedNs int64
	for _, ps := range traced {
		tracedRun = append(tracedRun, float64(ps.runNs))
		tracedNs += ps.runNs
	}
	var allocs uint64
	var accesses int64
	for _, ps := range untraced {
		untracedRun = append(untracedRun, float64(ps.runNs))
		allocs += ps.allocs
		accesses += ps.m.Accesses
	}
	return map[string]float64{
		"trace.next_ns":               all.meanNs(spTraceNext),
		"trace.new_generator_us":      all.meanNs(spTraceNew) / 1e3,
		"core.access_ns":              all.meanNs(spCoreAccess),
		"core.mig.outstanding_mean":   ratio(m.OutstandingSum, m.OutstandingN),
		"core.mig.outstanding_peak":   float64(m.OutstandingPeak),
		"core.smc.l1_hit_ratio":       ratio(m.SMC.L1Hits, m.SMC.L1Hits+m.SMC.L1Misses),
		"core.smc.l2_hit_ratio":       ratio(m.SMC.L2Hits, m.SMC.L2Hits+m.SMC.L2Misses),
		"core.smc.walks_per_access":   ratio(m.Walks, m.CoreAccesses),
		"memctrl.access_ns":           all.meanNs(spMemctrlAccess),
		"memctrl.row_hit_ratio":       ratio(m.RowHits, m.Accesses),
		"dram.codec_ns":               all.meanNs(spDramCodec),
		"rack.place_ms":               all.meanNs(spRackPlace) / 1e6,
		"rack.free_ms":                all.meanNs(spRackFree) / 1e6,
		"rack.consolidate_ms":         all.meanNs(spRackConsolidate) / 1e6,
		"rack.access_ns":              all.meanNs(spRackAccess),
		"rack.cross_access_share":     ratio(m.CrossAccesses, m.Accesses),
		"rack.vm_migrations":          float64(m.VMMigrations),
		"vmtrace.schedule_ms":         all.meanNs(spVmtraceSchedule) / 1e6,
		"telemetry.ledger_spans":      float64(m.LedgerSpans),
		"core.mig.enqueued":           float64(m.MigEnqueued),
		"core.mig.write_conflicts":    float64(m.WriteConflicts),
		"core.hot.sr_enters":          float64(m.SREnters),
		"core.powerdown.events":       float64(m.PowerDownEvents),
		"dram.residency.self_refresh": m.ResidencySR,
		"dram.residency.mpsm":         m.ResidencyMPSM,
		"sim_energy_saving":           m.EnergySaving,
		"allocs_per_access":           float64(allocs) / float64(accesses),
		"failed_share":                ratio(m.Refused, m.Accesses+m.Placements),
		"bench.tracing_overhead":      median(tracedRun)/median(untracedRun) - 1,
		"bench.unattributed_share":    1 - float64(all.runCoveredNs)/float64(tracedNs),
	}
}
