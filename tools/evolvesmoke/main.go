// Command evolvesmoke is the evolutionary-search gate behind `make
// evolve-smoke`. It drives seesaw-evolve end to end as a process and
// gates on the properties that make the search trustworthy as an
// experiment driver:
//
//  1. Determinism: two runs with the same seed produce byte-identical
//     output — the front table on stdout and the generation log on
//     stderr. A search whose "best" config depends on scheduling noise
//     is not an experiment.
//  2. Crash resume: a store-backed search is SIGKILLed mid-run; the
//     restarted search must resume from the generation checkpoint
//     (first generation line > gen 0) and still produce the front the
//     uninterrupted search produces.
//  3. Warm-store rerun: repeating the finished search against its store
//     must perform zero fresh simulations — every cell is a store hit.
//
// The budget is deliberately tiny (one workload, 3 generations); the
// gate checks the machinery, not the search quality, which
// TestSearchBeatsDefault pins at the package level.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"seesaw/tools/internal/proc"
)

// searchArgs is the shared tiny-budget search every phase runs.
func searchArgs(extra ...string) []string {
	args := []string{
		"-seed", "7",
		"-pop", "4",
		"-generations", "3",
		"-workloads", "redis",
		"-frag", "0.6",
		"-refs", "3000",
		"-warmup", "2000",
		"-parallel", "2",
	}
	return append(args, extra...)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evolvesmoke:", err)
		os.Exit(1)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "seesaw-evolvesmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bins, err := proc.Build(tmp, "seesaw-evolve")
	if err != nil {
		return err
	}
	bin := bins[0]
	storeDir := filepath.Join(tmp, "store")

	search := func(args []string) (stdout, stderr []byte, err error) {
		cmd := exec.Command(bin, args...)
		var outB, errB bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outB, &errB
		err = cmd.Run()
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, errB.Bytes())
		}
		return outB.Bytes(), errB.Bytes(), err
	}

	// Phase 1 — determinism: same seed, byte-identical front and log.
	out1, log1, err := search(searchArgs())
	if err != nil {
		return fmt.Errorf("first search: %w", err)
	}
	out2, log2, err := search(searchArgs())
	if err != nil {
		return fmt.Errorf("second search: %w", err)
	}
	if !bytes.Equal(out1, out2) {
		return fmt.Errorf("same-seed fronts differ\n--- run 1 ---\n%s--- run 2 ---\n%s", out1, out2)
	}
	if !bytes.Equal(log1, log2) {
		return fmt.Errorf("same-seed generation logs differ\n--- run 1 ---\n%s--- run 2 ---\n%s", log1, log2)
	}
	if !bytes.Contains(out1, []byte("Pareto front")) || !bytes.Contains(out1, []byte("paper-default")) {
		return fmt.Errorf("front table missing expected rows:\n%s", out1)
	}

	// Phase 2 — SIGKILL mid-run, then resume. The search checkpoints at
	// every generation start, so killing after the "gen 1:" line leaves
	// a mid-run checkpoint plus that generation's cells in the store.
	if err := killMidRun(bin, storeDir); err != nil {
		return err
	}
	resumedOut, resumedLog, err := search(searchArgs("-store", storeDir))
	if err != nil {
		return fmt.Errorf("resumed search: %w", err)
	}
	firstGen, err := firstGenerationLine(resumedLog)
	if err != nil {
		return fmt.Errorf("resumed search: %w", err)
	}
	if strings.HasPrefix(firstGen, "gen 0:") {
		return fmt.Errorf("restarted search began at gen 0 — it did not resume from the checkpoint:\n%s", resumedLog)
	}
	if !bytes.Equal(resumedOut, out1) {
		return fmt.Errorf("resumed front differs from uninterrupted front\n--- uninterrupted ---\n%s--- resumed ---\n%s", out1, resumedOut)
	}

	// Phase 3 — warm-store rerun: the identical finished search against
	// the populated store must run zero fresh simulations.
	warmOut, warmLog, err := search(searchArgs("-store", storeDir))
	if err != nil {
		return fmt.Errorf("warm-store search: %w", err)
	}
	if !bytes.Equal(warmOut, out1) {
		return fmt.Errorf("warm-store front differs\n--- cold ---\n%s--- warm ---\n%s", out1, warmOut)
	}
	fresh, err := freshRuns(warmLog)
	if err != nil {
		return err
	}
	if fresh != 0 {
		return fmt.Errorf("warm-store rerun performed %d fresh simulations, want 0:\n%s", fresh, warmLog)
	}

	fmt.Printf("evolvesmoke: ok — same-seed runs byte-identical; killed search resumed at %q with an identical front; warm-store rerun ran 0 fresh simulations\n",
		strings.SplitN(firstGen, ",", 2)[0])
	return nil
}

// killMidRun starts a store-backed search and SIGKILLs it once the
// second generation has completed (its "gen 1:" stderr line appeared),
// leaving a mid-run checkpoint behind.
func killMidRun(bin, storeDir string) error {
	cmd := exec.Command(bin, searchArgs("-store", storeDir)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	killed := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "gen 1:") {
				killed <- cmd.Process.Kill()
				return
			}
		}
		killed <- fmt.Errorf("search exited before printing gen 1 (err %v)", sc.Err())
	}()
	select {
	case err := <-killed:
		cmd.Wait()
		if err != nil {
			return fmt.Errorf("kill mid-run: %w", err)
		}
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("search never reached gen 1 within 2 minutes")
	}
	return nil
}

// firstGenerationLine returns the first "gen N:" line of a search log.
func firstGenerationLine(log []byte) (string, error) {
	for _, l := range strings.Split(string(log), "\n") {
		if strings.HasPrefix(l, "gen ") {
			return l, nil
		}
	}
	return "", fmt.Errorf("no generation lines in log:\n%s", log)
}

var sourcesRE = regexp.MustCompile(`evaluation sources: store \d+, cached \d+, fresh (\d+)`)

// freshRuns parses the fresh-simulation count from the final
// "evaluation sources:" stderr line.
func freshRuns(log []byte) (int, error) {
	m := sourcesRE.FindSubmatch(log)
	if m == nil {
		return 0, fmt.Errorf("no evaluation-sources line in log:\n%s", log)
	}
	var n int
	if _, err := fmt.Sscanf(string(m[1]), "%d", &n); err != nil {
		return 0, err
	}
	return n, nil
}
