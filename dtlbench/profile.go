package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// startProfile starts a CPU profile of the whole run into
// <out>/profiles/<workload>.cpu.pprof. The returned stop function ends it
// and prints the profile's flat time grouped by package. Outside timing
// cannot split core from memctrl inside one DTL.Access; the profile can.
func startProfile(out, workload string) (func(io.Writer) error, error) {
	path := filepath.Join(out, "profiles", workload+".cpu.pprof")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profile: %w", err)
	}
	return func(w io.Writer) error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		shares, err := packageSplit(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "profile: %s, flat CPU time by package\n", path)
		for _, s := range shares {
			fmt.Fprintf(w, "profile %-28s %6.2f%%\n", s.pkg, s.pct)
		}
		return nil
	}, nil
}

type pkgShare struct {
	pkg string
	pct float64
}

// packageSplit runs the installed `go tool pprof -top` over a CPU profile
// and sums each function's flat share into its package.
func packageSplit(path string) ([]pkgShare, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return splitTop(text)
}

// splitTop parses `pprof -top` rows ("flat flat% sum% cum cum% name") and
// groups flat% by the package of name.
func splitTop(text []byte) ([]pkgShare, error) {
	byPkg := map[string]float64{}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || f[1] == "flat%" {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		byPkg[packageOf(f[5])] += pct
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no rows")
	}
	out := make([]pkgShare, 0, len(byPkg))
	for p, v := range byPkg {
		out = append(out, pkgShare{p, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pct != out[j].pct {
			return out[i].pct > out[j].pct
		}
		return out[i].pkg < out[j].pkg
	})
	return out, nil
}

// packageOf extracts the import path from a symbol such as
// "dtl/internal/core.(*migrator).completeUpTo" and shortens the
// repository's own packages to their layer name ("core").
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	pkg := sym
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "dtl/internal/"); ok {
		return rest
	}
	if pkg == "main" {
		return "bench"
	}
	return pkg
}
