// Command laddersmoke is the snapshot-ladder gate behind `make
// ladder-smoke`. It drives seesaw-sweep end to end through the ladder's
// whole lifecycle — a sweep with -store always climbs the store's
// ladder — and gates on the properties that make the ladder safe:
//
//  1. Correctness: a laddered sweep's table is byte-identical to the
//     same sweep without a store, whose cells fork an in-memory warmed
//     master (runner's TestSharedWarmupMatchesCold pins that path
//     against cold runs) — rungs buy wall-clock time only, never
//     different numbers. Checked twice: for a sweep that climbed from a
//     mid-warmup rung after a SIGKILL, and for a sweep that resumed
//     from the boundary rung.
//  2. Crash resume: the sweep process is SIGKILLed mid-climb; the rungs
//     it persisted survive, and the restarted sweep resumes from the
//     deepest one — asserted from the ladder summary, which must show
//     at least one rung's worth of warmup skipped.
//  3. Rung hit rate: a fresh sweep against the populated store must
//     resume every warmup from a rung (hit rate 100%) and execute zero
//     warmup references.
//
// The measured storeless-vs-laddered speedup is printed for the log;
// wall-clock ratios are not gated because CI machines are noisy.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"seesaw/tools/internal/proc"
)

const (
	warmupRefs = 2_000_000
	rungEvery  = 300_000
)

// baseArgs is the sweep shape: one workload (one warmup signature),
// several designs, a warmup that dominates each cell — the regime the
// ladder exists for. Serial, so timings compare like for like.
func baseArgs(refs int) []string {
	return []string{
		"-workloads", "redis",
		"-sizes", "32",
		"-refs", strconv.Itoa(refs),
		"-warmup", strconv.Itoa(warmupRefs),
		"-parallel", "1",
	}
}

func ladderArgs(refs int, storeDir string) []string {
	return append(baseArgs(refs),
		"-store", storeDir,
		"-rung-every", strconv.Itoa(rungEvery),
	)
}

// summary is the parsed "seesaw-sweep: ladder: ..." stderr line.
type summary struct {
	warmups, hits, skipped, executed, puts, drops int
}

var summaryRE = regexp.MustCompile(
	`ladder: (\d+) warmup\(s\), (\d+) resumed from rungs, (\d+) refs skipped, (\d+) refs executed, (\d+) rung\(s\) persisted, (\d+) dropped`)

func parseSummary(stderr []byte) (summary, error) {
	m := summaryRE.FindSubmatch(stderr)
	if m == nil {
		return summary{}, fmt.Errorf("no ladder summary in stderr:\n%s", stderr)
	}
	var s summary
	for i, dst := range []*int{&s.warmups, &s.hits, &s.skipped, &s.executed, &s.puts, &s.drops} {
		n, err := strconv.Atoi(string(m[i+1]))
		if err != nil {
			return summary{}, err
		}
		*dst = n
	}
	return s, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "laddersmoke:", err)
		os.Exit(1)
	}
}

// countRungs counts .snap entries under the store directory.
func countRungs(storeDir string) int {
	n := 0
	filepath.WalkDir(filepath.Join(storeDir, "snap"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".snap" {
			n++
		}
		return nil
	})
	return n
}

func run() error {
	tmp, err := os.MkdirTemp("", "seesaw-laddersmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bins, err := proc.Build(tmp, "seesaw-sweep")
	if err != nil {
		return err
	}
	bin := bins[0]
	storeDir := filepath.Join(tmp, "store")

	sweep := func(args []string) (stdout, stderr []byte, dur time.Duration, err error) {
		cmd := exec.Command(bin, args...)
		var outB, errB bytes.Buffer
		cmd.Stdout, cmd.Stderr = &outB, &errB
		start := time.Now()
		err = cmd.Run()
		return outB.Bytes(), errB.Bytes(), time.Since(start), err
	}

	// The reference table: the same sweep without a store.
	ref, _, _, err := sweep(baseArgs(3_000))
	if err != nil {
		return fmt.Errorf("storeless sweep: %w", err)
	}

	// Phase 1 — start a laddered sweep and SIGKILL it once two rungs hit
	// the disk, mid-climb.
	kill := exec.Command(bin, ladderArgs(3_000, storeDir)...)
	kill.Stdout, kill.Stderr = nil, nil
	if err := kill.Start(); err != nil {
		return err
	}
	killed := false
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		if countRungs(storeDir) >= 2 {
			if err := kill.Process.Kill(); err != nil {
				return fmt.Errorf("kill: %w", err)
			}
			killed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	kill.Wait()
	if !killed {
		return fmt.Errorf("never saw 2 rungs on disk to kill over (store has %d)", countRungs(storeDir))
	}
	survivors := countRungs(storeDir)
	if survivors < 2 {
		return fmt.Errorf("only %d rung(s) survived the kill, want >= 2", survivors)
	}

	// Phase 2 — restart the identical sweep: it must resume from the
	// deepest surviving rung, finish, and reproduce the reference table.
	resumed, resumedErr, _, err := sweep(ladderArgs(3_000, storeDir))
	if err != nil {
		return fmt.Errorf("restarted sweep: %w\n%s", err, resumedErr)
	}
	if !bytes.Equal(ref, resumed) {
		return fmt.Errorf("restarted ladder table differs from storeless table\n--- storeless ---\n%s--- resumed ---\n%s", ref, resumed)
	}
	s, err := parseSummary(resumedErr)
	if err != nil {
		return fmt.Errorf("restarted sweep: %w", err)
	}
	if s.hits != 1 || s.skipped < rungEvery {
		return fmt.Errorf("restarted sweep did not resume from a rung: %+v", s)
	}
	if s.executed > warmupRefs-rungEvery {
		return fmt.Errorf("restarted sweep redid too much warmup (%d refs, rung should have saved >= %d): %+v",
			s.executed, rungEvery, s)
	}

	// Phase 3 — a fresh sweep with a different measured phase (so the
	// report store cannot answer it) must warm entirely from the
	// boundary rung: 100%% rung hit rate, zero warmup references run.
	ref2, _, ref2Dur, err := sweep(baseArgs(5_000))
	if err != nil {
		return fmt.Errorf("second storeless sweep: %w", err)
	}
	full, fullErr, fullDur, err := sweep(ladderArgs(5_000, storeDir))
	if err != nil {
		return fmt.Errorf("full-resume sweep: %w\n%s", err, fullErr)
	}
	if !bytes.Equal(ref2, full) {
		return fmt.Errorf("full-resume ladder table differs from storeless table\n--- storeless ---\n%s--- laddered ---\n%s", ref2, full)
	}
	s2, err := parseSummary(fullErr)
	if err != nil {
		return fmt.Errorf("full-resume sweep: %w", err)
	}
	if s2.warmups == 0 || s2.hits != s2.warmups {
		return fmt.Errorf("rung hit rate %d/%d, want 100%%: %+v", s2.hits, s2.warmups, s2)
	}
	if s2.executed != 0 {
		return fmt.Errorf("full resume still executed %d warmup refs: %+v", s2.executed, s2)
	}

	fmt.Printf("laddersmoke: ok — tables byte-identical; crash resumed at rung %d/%d; storeless %v vs laddered %v (%.2fx)\n",
		s.skipped, warmupRefs, ref2Dur.Round(time.Millisecond), fullDur.Round(time.Millisecond),
		float64(ref2Dur)/float64(fullDur))
	return nil
}
