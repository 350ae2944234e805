// Command clustersmoke is the process-level cluster gate behind `make
// cluster-smoke`: it builds seesaw-coord, seesaw-served, and
// seesaw-sweep, boots a coordinator with three self-registering workers,
// runs the same small sweep locally and through the cluster — SIGKILLing
// one worker mid-sweep — and requires the two merged tables to be
// byte-identical. It then SIGTERMs the coordinator and requires a clean
// drain. Any deviation exits non-zero.
//
// This is the fabric's whole contract exercised with real processes and
// real TCP: self-registration, health probing, lease-protected dispatch,
// crash requeue, and the /v1/jobs API fronting it all.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"seesaw/tools/internal/proc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clustersmoke:", err)
		os.Exit(1)
	}
	fmt.Println("clustersmoke: ok")
}

// sweepArgs is the grid run both locally and on the cluster; -csv output
// is what gets byte-compared. The reference count is sized so cells
// hold their leases long enough for the mid-sweep worker kill to find
// one.
var sweepArgs = []string{"-workloads", "redis,mcf", "-sizes", "32", "-refs", "60000", "-csv"}

func run() error {
	tmp, err := os.MkdirTemp("", "seesaw-clustersmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bins, err := proc.Build(tmp, "seesaw-coord", "seesaw-served", "seesaw-sweep")
	if err != nil {
		return err
	}
	coordBin, servedBin, sweepBin := bins[0], bins[1], bins[2]

	// Reference: the sweep computed locally, no cluster involved.
	local, err := exec.Command(sweepBin, sweepArgs...).Output()
	if err != nil {
		return fmt.Errorf("local sweep: %v", err)
	}

	// Coordinator on a random port, tuned to notice failures fast.
	coord, coordAddr, err := proc.Boot(coordBin,
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(tmp, "store"),
		"-lease-ttl", "2s", "-probe-every", "300ms", "-evict-after", "2",
		"-backoff", "50ms",
	)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	defer coord.Process.Kill()
	fmt.Printf("clustersmoke: coordinator on %s\n", coordAddr)

	// Three workers, each announcing itself to the coordinator.
	var workers []*exec.Cmd
	var workerAddrs []string
	defer func() {
		for _, w := range workers {
			w.Process.Kill()
		}
	}()
	for i := 0; i < 3; i++ {
		w, addr, err := proc.Boot(servedBin, "-addr", "127.0.0.1:0", "-register", coordAddr)
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		workers = append(workers, w)
		workerAddrs = append(workerAddrs, addr)
	}
	if err := waitHealthyWorkers(coordAddr, 3, 20*time.Second); err != nil {
		return err
	}
	fmt.Println("clustersmoke: 3 workers registered and healthy")

	// The cluster sweep, with the first worker seen holding a lease
	// SIGKILLed: its leases must break, the cells requeue, and the table
	// still come out byte-identical. Keying the kill on a held lease
	// rather than a delay lands it mid-sweep however fast the host runs
	// the cells.
	sweep := exec.Command(sweepBin, append([]string{"-cluster", coordAddr}, sweepArgs...)...)
	var clusterTable bytes.Buffer
	sweep.Stdout = &clusterTable
	sweep.Stderr = os.Stderr
	if err := sweep.Start(); err != nil {
		return err
	}
	sweepDone := make(chan error, 1)
	go func() { sweepDone <- sweep.Wait() }()
	timeout := time.After(3 * time.Minute)
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	killed := false
	for done := false; !done; {
		select {
		case err := <-sweepDone:
			if err != nil {
				return fmt.Errorf("cluster sweep: %v", err)
			}
			done = true
		case <-timeout:
			sweep.Process.Kill()
			return fmt.Errorf("cluster sweep did not finish within 3m of a worker crash")
		case <-poll.C:
			if killed {
				continue
			}
			if i := leaseHolder(coordAddr, workerAddrs); i >= 0 {
				fmt.Printf("clustersmoke: SIGKILLing worker %d mid-sweep\n", i)
				workers[i].Process.Kill()
				workers[i].Wait()
				killed = true
			}
		}
	}
	if !killed {
		return fmt.Errorf("cluster sweep finished before any worker held a lease; the requeue path went unexercised")
	}
	if !bytes.Equal(local, clusterTable.Bytes()) {
		return fmt.Errorf("cluster table differs from local:\n--- local ---\n%s--- cluster ---\n%s",
			local, clusterTable.Bytes())
	}
	fmt.Println("clustersmoke: merged table byte-identical to the local sweep")

	// Graceful shutdown: SIGTERM drains the coordinator, exit 0.
	return proc.Stop(coord)
}

// waitHealthyWorkers polls the coordinator's /healthz until n workers
// report healthy.
func waitHealthyWorkers(addr string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		healthy, total := 0, 0
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			var h struct {
				Workers []struct {
					Healthy bool `json:"healthy"`
				} `json:"workers"`
			}
			if json.NewDecoder(resp.Body).Decode(&h) == nil {
				total = len(h.Workers)
				for _, w := range h.Workers {
					if w.Healthy {
						healthy++
					}
				}
			}
			resp.Body.Close()
		}
		if healthy >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d/%d workers healthy (of %d registered) after %s", healthy, n, total, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// leaseHolder returns the index in addrs of a worker the coordinator
// reports holding at least one lease, or -1 if none does (or the
// coordinator did not answer).
func leaseHolder(coordAddr string, addrs []string) int {
	resp, err := http.Get("http://" + coordAddr + "/v1/cluster/workers")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var ws []struct {
		Addr   string `json:"addr"`
		Active int    `json:"active"`
	}
	if json.NewDecoder(resp.Body).Decode(&ws) != nil {
		return -1
	}
	for _, w := range ws {
		if w.Active > 0 {
			for i, a := range addrs {
				if a == w.Addr {
					return i
				}
			}
		}
	}
	return -1
}
