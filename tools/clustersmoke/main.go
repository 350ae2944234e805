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
	"strings"
	"syscall"
	"time"
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

	coordBin := filepath.Join(tmp, "seesaw-coord")
	servedBin := filepath.Join(tmp, "seesaw-served")
	sweepBin := filepath.Join(tmp, "seesaw-sweep")
	for bin, pkg := range map[string]string{
		coordBin:  "./cmd/seesaw-coord",
		servedBin: "./cmd/seesaw-served",
		sweepBin:  "./cmd/seesaw-sweep",
	} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", pkg, err, out)
		}
	}

	// Reference: the sweep computed locally, no cluster involved.
	local, err := exec.Command(sweepBin, sweepArgs...).Output()
	if err != nil {
		return fmt.Errorf("local sweep: %v", err)
	}

	// Coordinator on a random port, tuned to notice failures fast.
	coord := exec.Command(coordBin,
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(tmp, "store"),
		"-lease-ttl", "2s", "-probe-every", "300ms", "-evict-after", "2",
		"-backoff", "50ms",
	)
	coordOut, err := coord.StdoutPipe()
	if err != nil {
		return err
	}
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		return err
	}
	defer coord.Process.Kill()
	coordAddr, err := readAddr(coordOut)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
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
		w := exec.Command(servedBin, "-addr", "127.0.0.1:0", "-register", coordAddr)
		wOut, err := w.StdoutPipe()
		if err != nil {
			return err
		}
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			return err
		}
		workers = append(workers, w)
		addr, err := readAddr(wOut)
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
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
	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- coord.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("coordinator exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("coordinator did not exit within 30s of SIGTERM")
	}
	return nil
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

// readAddr scans a process's stdout for its "listening on HOST:PORT"
// line, with a timeout so a wedged process fails fast.
func readAddr(stdout interface{ Read([]byte) (int, error) }) (string, error) {
	type result struct {
		addr string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		buf := make([]byte, 256)
		var line strings.Builder
		for {
			n, err := stdout.Read(buf)
			line.Write(buf[:n])
			if s := line.String(); strings.Contains(s, "\n") {
				first := strings.SplitN(s, "\n", 2)[0]
				addr, ok := strings.CutPrefix(first, "listening on ")
				if !ok {
					ch <- result{err: fmt.Errorf("unexpected output %q", first)}
					return
				}
				ch <- result{addr: strings.TrimSpace(addr)}
				return
			}
			if err != nil {
				ch <- result{err: fmt.Errorf("process exited before announcing its address: %v", err)}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		return r.addr, r.err
	case <-time.After(15 * time.Second):
		return "", fmt.Errorf("process did not announce its address within 15s")
	}
}
