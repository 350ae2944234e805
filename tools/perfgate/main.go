// Command perfgate is the repo's throughput gate: it runs the simulator
// throughput benchmarks (BenchmarkSimulatorThroughput, whole runs
// including Build and Warmup; BenchmarkMachineStepBatched, the
// steady-state epoch-batched measured phase) and compares their refs/s
// against the checked-in baseline in BENCH_throughput.json, failing if
// any benchmark regressed by more than the threshold. `make perfgate`
// (part of `make verify`) runs the check; `make bench-baseline`
// re-measures and rewrites the baseline file.
//
// Each benchmark runs -count times and the gate scores the fastest run:
// throughput on a shared or virtualized host only ever has downward
// noise (a busy neighbor makes a run slower, never faster), so the max
// is the most repeatable estimate of the machine's actual speed. The
// default 20% threshold leaves room for the residual noise; a real
// hot-path regression (an allocation per reference, a per-reference
// copy of simulator state) costs well more than that.
//
// Usage:
//
//	go run ./tools/perfgate           # gate against BENCH_throughput.json
//	go run ./tools/perfgate -write    # rewrite the baseline file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// benchmarks lists the gated benchmarks. Both run SEESAW on redis and
// report a refs/s metric.
var benchmarks = []string{
	"BenchmarkMachineStepBatched",
	"BenchmarkSimulatorThroughput",
}

// Baseline is the on-disk schema of BENCH_throughput.json.
type Baseline struct {
	// WrittenAt records when the baseline was measured (RFC 3339).
	WrittenAt string `json:"written_at"`
	// GoVersion and NumCPU identify the environment the numbers came
	// from; comparisons across different environments are advisory only.
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// RefsPerSec maps benchmark name to its best-of-count refs/s.
	RefsPerSec map[string]float64 `json:"refs_per_sec"`
	// Notes carries context a bare number loses (e.g. the pre-batching
	// seed throughput this PR's work is measured against).
	Notes string `json:"notes"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkMachineStepBatched  50  17313597 ns/op  2887910 refs/s".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+\S+ ns/op\s+(\S+) refs/s`)

func main() {
	write := flag.Bool("write", false, "rewrite the baseline instead of gating against it")
	file := flag.String("file", "BENCH_throughput.json", "baseline file")
	benchtime := flag.String("benchtime", "40x", "go test -benchtime per run")
	count := flag.Int("count", 3, "runs per benchmark; the fastest is scored")
	threshold := flag.Float64("threshold", 0.20, "maximum allowed fractional refs/s regression")
	flag.Parse()

	measured, err := measure(*benchtime, *count)
	if err != nil {
		fatal(err)
	}
	for _, name := range benchmarks {
		if _, ok := measured[name]; !ok {
			fatal(fmt.Errorf("benchmark %s reported no refs/s metric", name))
		}
	}

	if *write {
		base := Baseline{
			WrittenAt:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			RefsPerSec: measured,
			Notes: "Best of -count runs per benchmark. Seed-commit BenchmarkSimulatorThroughput " +
				"on this host: 1682728 refs/s (pre-batching baseline this PR is measured against).",
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*file, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s:\n", *file)
		report(measured, nil, 0)
		return
	}

	raw, err := os.ReadFile(*file)
	if err != nil {
		fatal(fmt.Errorf("no baseline (%w); run `make bench-baseline` first", err))
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *file, err))
	}
	if base.NumCPU != runtime.NumCPU() || base.GoVersion != runtime.Version() {
		fmt.Printf("note: baseline from %s/%d CPUs, running on %s/%d — comparison is advisory\n",
			base.GoVersion, base.NumCPU, runtime.Version(), runtime.NumCPU())
	}

	violations := report(measured, base.RefsPerSec, *threshold)
	if len(violations) > 0 {
		fmt.Println()
		for _, v := range violations {
			fmt.Println("FAIL:", v)
		}
		os.Exit(1)
	}
	fmt.Println("\nperfgate ok")
}

// measure runs the gated benchmarks and returns best-of-count refs/s.
func measure(benchtime string, count int) (map[string]float64, error) {
	pattern := "^("
	for i, b := range benchmarks {
		if i > 0 {
			pattern += "|"
		}
		pattern += b
	}
	pattern += ")$"
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench failed: %w\n%s", err, out)
	}
	best := make(map[string]float64)
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(out), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if v > best[m[1]] {
			best[m[1]] = v
		}
	}
	return best, nil
}

// report prints the measured-vs-baseline table and returns threshold
// violations; with a nil baseline it just prints the measurements.
func report(measured, baseline map[string]float64, threshold float64) []string {
	names := make([]string, 0, len(measured))
	for n := range measured {
		names = append(names, n)
	}
	sort.Strings(names)
	var violations []string
	fmt.Printf("\n%-30s %14s %14s %8s\n", "benchmark", "refs/s", "baseline", "delta")
	for _, n := range names {
		got := measured[n]
		if baseline == nil {
			fmt.Printf("%-30s %14.0f %14s %8s\n", n, got, "-", "-")
			continue
		}
		want, ok := baseline[n]
		if !ok || want <= 0 {
			fmt.Printf("%-30s %14.0f %14s %8s\n", n, got, "(none)", "-")
			continue
		}
		delta := got/want - 1
		fmt.Printf("%-30s %14.0f %14.0f %+7.1f%%\n", n, got, want, delta*100)
		if got < want*(1-threshold) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f refs/s is more than %.0f%% below the baseline %.0f",
				n, got, threshold*100, want))
		}
	}
	return violations
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfgate:", err)
	os.Exit(1)
}
