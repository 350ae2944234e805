// Command zoosmoke is the end-to-end service gate behind `make
// zoo-smoke`: it sweeps every design registered in the zoo — not a
// hardcoded list, so a newly registered design is covered the moment it
// exists — through the real service stack. It builds seesaw-served and
// seesaw-client, boots the daemon on a random port with a fresh store,
// submits one cell per registered design, requires every cell to be
// computed fresh, resubmits and requires every cell to come back from
// the store in under a second with byte-identical per-cell results,
// then SIGTERMs the daemon and requires a clean drain. Any deviation
// exits non-zero.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"seesaw/internal/sim"
	"seesaw/tools/internal/proc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zoosmoke:", err)
		os.Exit(1)
	}
	fmt.Println("zoosmoke: ok")
}

func run() error {
	designs := sim.DesignNames()
	if len(designs) < 4 {
		return fmt.Errorf("registry holds %d designs %v, want at least the seed four", len(designs), designs)
	}
	fmt.Printf("zoosmoke: sweeping %d designs: %s\n", len(designs), strings.Join(designs, ", "))

	tmp, err := os.MkdirTemp("", "seesaw-zoosmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bins, err := proc.Build(tmp, "seesaw-served", "seesaw-client")
	if err != nil {
		return err
	}
	served, client := bins[0], bins[1]
	daemon, addr, err := proc.Boot(served, "-addr", "127.0.0.1:0", "-store", filepath.Join(tmp, "store"))
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()
	fmt.Printf("zoosmoke: daemon on %s\n", addr)

	n := len(designs)
	jobArgs := []string{"-addr", addr, "-workloads", "redis",
		"-caches", strings.Join(designs, ","),
		"-refs", "3000", "-wait", "-timeout", "2m"}

	// First submission computes one fresh cell per design.
	out, err := exec.Command(client, jobArgs...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("first submission: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), fmt.Sprintf("runs=%d", n)) ||
		!strings.Contains(string(out), "store_hits=0") {
		return fmt.Errorf("first submission should compute all %d cells fresh:\n%s", n, out)
	}
	first := cellLines(string(out))
	if len(first) != n {
		return fmt.Errorf("first submission printed %d result lines, want %d:\n%s", len(first), n, out)
	}

	// Identical resubmission: every design's cell answered from the
	// store, with results byte-identical to the fresh run.
	start := time.Now()
	out, err = exec.Command(client, jobArgs...).CombinedOutput()
	elapsed := time.Since(start)
	if err != nil {
		return fmt.Errorf("cached submission: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "runs=0") ||
		!strings.Contains(string(out), fmt.Sprintf("store_hits=%d", n)) {
		return fmt.Errorf("cached submission should hit the store for all %d cells:\n%s", n, out)
	}
	second := cellLines(string(out))
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		return fmt.Errorf("store-served results differ from the fresh run:\n--- fresh ---\n%s\n--- cached ---\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	if elapsed > time.Second {
		return fmt.Errorf("cached submission took %s, want < 1s", elapsed)
	}
	fmt.Printf("zoosmoke: %d designs byte-identical from store in %s\n", n, elapsed.Round(time.Millisecond))
	return proc.Stop(daemon)
}

// cellLines extracts the per-cell result lines ("  DESC IPC ... cycles
// ... energy ...") from the client's output — the job id and source
// counters legitimately differ between the fresh and cached runs, the
// simulated results must not.
func cellLines(out string) []string {
	var cells []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") && strings.Contains(line, "cycles") {
			cells = append(cells, line)
		}
	}
	return cells
}
