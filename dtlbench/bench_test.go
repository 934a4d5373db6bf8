package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dtl/internal/telemetry"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{20, 50}, {73, 86}, {976, 98}, {999, 98}, {1000, 99}, {4096, 99},
	} {
		got, err := tailPercentile(c.n)
		if err != nil || got != c.want {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", c.n, got, err, c.want)
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("tailPercentile(19) accepted too few samples")
	}
	// The rule itself: at least ten samples lie beyond the chosen
	// percentile's nearest-rank value, and fewer than ten beyond the next.
	beyond := func(n, p int) int { return n - (p*n+99)/100 }
	for n := 20; n <= 5000; n++ {
		p, err := tailPercentile(n)
		if err != nil {
			t.Fatal(err)
		}
		if beyond(n, p) < 10 || p < 99 && beyond(n, p+1) >= 10 {
			t.Fatalf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(n, p), p+1, beyond(n, p+1))
		}
	}
}

func TestNearestRankAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := nearestRank(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := nearestRank(xs, 80); got != 4 {
		t.Errorf("p80 = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("nearestRank sorted its input in place")
	}
}

// validName reports whether s follows the metric-name grammar: 1 to 64
// characters from [A-Za-z0-9_.-], starting with a letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.smc.l1_hit_ratio", "9x", "a-b", strings.Repeat("a", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ns%", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, e2eMetrics...), layerMetrics...) {
		if !validName(d.name) || seen[d.name] {
			t.Errorf("metric %q is invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and main.go's
// metric tables in step: same workloads, names and units, in order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, main.go %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, main.go %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], main.go %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

func TestLedgerIdentity(t *testing.T) {
	var c [telemetry.NumCauses]telemetry.LedgerCell
	c[telemetry.CauseBaseline].LatNs = 700
	c[telemetry.CauseSMCMissWalk].LatNs = 120
	c[telemetry.CauseSelfRefreshWake].LatNs = 30
	c[telemetry.CauseDegradedRead].LatNs = 20
	c[telemetry.CauseFabricStall].LatNs = 130
	c[telemetry.CauseFabricCopy].LatNs = 5000 // not foreground latency
	if err := ledgerIdentity(c, 900, 100); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	if err := ledgerIdentity(c, 901, 100); err == nil {
		t.Fatal("ledger one nanosecond short was accepted")
	}
	if err := ledgerIdentity(c, 1000, 0); err != nil {
		t.Fatalf("verify latency must count like observed latency: %v", err)
	}
}

// TestGatesOnBothSeeds runs test-sized passes of every workload, untraced
// and traced, on the default and the held-out seed: each must pass its
// gates and state assertions, and tracing must not change the model.
func TestGatesOnBothSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			plain, err := onePass(w, seed, true, false)
			if err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
				continue
			}
			traced, err := onePass(w, seed, true, true)
			if err != nil {
				t.Errorf("%s seed %d traced: %v", w.name, seed, err)
				continue
			}
			if digest(plain.m) != digest(traced.m) {
				t.Errorf("%s seed %d: traced model differs:\n%+v\n%+v", w.name, seed, plain.m, traced.m)
			}
			if traced.tr.runCoveredNs == 0 || traced.tr.aggs[spTraceNext].Count == 0 {
				t.Errorf("%s seed %d: traced pass recorded no spans", w.name, seed)
			}
		}
	}
}

// TestRackLedgerTamper checks that a real rack-churn ledger balances and
// that the gate notices a single nanosecond of drift.
func TestRackLedgerTamper(t *testing.T) {
	p, err := setupRackChurn(defaultSeed, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc := p.(*rackChurn)
	if err := rc.run(nil, newStepClock(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.finish(); err != nil {
		t.Fatal(err)
	}
	err = ledgerIdentity(rc.led.CauseTotals(), rc.m.LatSumNs+1, rc.alloc.Stats().VerifyLatNs)
	if err == nil {
		t.Fatal("tampered observed latency passed the ledger identity")
	}
}

func TestMeasurePrintsEveryMetric(t *testing.T) {
	w, _ := workloadByName("ctrl-replay")
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		o := options{workload: w.name, seed: defaultSeed, seconds: 1, traced: traced, out: t.TempDir(), small: true}
		res, err := measure(w, o, &out)
		if err != nil {
			t.Fatal(err)
		}
		want := e2eMetrics
		if traced {
			want = layerMetrics
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Fatalf("traced=%v: result %+v", traced, res)
		}
		for _, d := range want {
			if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || !strings.Contains(out.String(), d.name) {
				t.Errorf("traced=%v: metric %s missing or mislabelled: %+v", traced, d.name, v)
			}
		}
	}
}

func TestSplitTop(t *testing.T) {
	text := []byte(`File: dtlbench
Type: cpu
Showing nodes accounting for 4.50s, 100% of 4.50s total
      flat  flat%   sum%        cum   cum%
     3.00s 66.67% 66.67%      3.00s 66.67%  dtl/internal/core.(*migrator).completeUpTo
     0.50s 11.11% 77.78%      0.60s 13.33%  dtl/internal/core.(*smc).lookup (inline)
     0.40s  8.89% 86.67%      0.40s  8.89%  dtl/internal/memctrl.(*Controller).Access
     0.30s  6.67% 93.33%      0.30s  6.67%  math/rand.(*Rand).Float64
     0.20s  4.44% 97.78%      4.50s   100%  main.(*srReplay).run
     0.10s  2.22%   100%      0.10s  2.22%  runtime.mallocgc
`)
	got, err := splitTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []pkgShare{{"core", 77.78}, {"memctrl", 8.89}, {"math/rand", 6.67}, {"bench", 4.44}, {"runtime", 2.22}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i].pkg != want[i].pkg || got[i].pct-want[i].pct > 1e-9 || want[i].pct-got[i].pct > 1e-9 {
			t.Errorf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := splitTop([]byte("no rows here\n")); err == nil {
		t.Error("empty pprof output accepted")
	}
}
