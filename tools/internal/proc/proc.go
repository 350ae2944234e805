// Package proc is the process plumbing the smoke gates share: building
// the commands under test, booting a daemon and reading the address it
// announces, and stopping it with SIGTERM.
package proc

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Build compiles ./cmd/NAME for each name into dir and returns the
// binaries' paths in the same order. Run it from the repository root.
func Build(dir string, names ...string) ([]string, error) {
	bins := make([]string, len(names))
	for i, name := range names {
		bins[i] = filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bins[i], "./cmd/"+name).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
	}
	return bins, nil
}

// Boot starts bin with args and waits up to 15s for its first stdout
// line, "listening on HOST:PORT". It returns the running process and
// that address; on error the process is killed. Stderr passes through.
func Boot(bin string, args ...string) (*exec.Cmd, string, error) {
	name := filepath.Base(bin)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	type result struct {
		line string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		line, err := bufio.NewReader(stdout).ReadString('\n')
		ch <- result{line, err}
	}()
	var addr string
	select {
	case r := <-ch:
		a, ok := strings.CutPrefix(strings.TrimSpace(r.line), "listening on ")
		switch {
		case r.err != nil:
			err = fmt.Errorf("%s exited before announcing its address: %v", name, r.err)
		case !ok:
			err = fmt.Errorf("unexpected %s output %q", name, r.line)
		default:
			addr = a
		}
	case <-time.After(15 * time.Second):
		err = fmt.Errorf("%s did not announce its address within 15s", name)
	}
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", err
	}
	return cmd, addr, nil
}

// Stop SIGTERMs cmd and requires a clean exit (status 0) within 30s:
// the graceful drain every daemon owes its operator.
func Stop(cmd *exec.Cmd) error {
	name := filepath.Base(cmd.Path)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exit after SIGTERM: %v", name, err)
		}
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("%s did not exit within 30s of SIGTERM", name)
	}
}
