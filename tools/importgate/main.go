// Command importgate enforces the cmd/ dependency boundary: commands
// talk to the simulator through its stable surfaces — sim (configs,
// reports, and the facade over leaf-config vocabularies), machine,
// runner, service, stats, cliutil — plus the harness-level packages
// workload (profile names), trace (the trace file format), store (the
// result store), and experiments (the figure generators). Direct imports
// of subsystem packages (core, tlb, tft, cache, coherence, osmm,
// physmem, pagetable, cpu, faults, check, metrics, energy, ...) are the
// coupling this gate exists to prevent: every one of them historically
// grew from "just one constant" into another strand of wiring that a
// refactor like the machine extraction had to untangle. `make
// importgate` (part of `make verify`) runs it.
//
// Usage:
//
//	go run ./tools/importgate [-dir cmd]
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allowed is the exhaustive set of internal packages cmd/ may import.
var allowed = map[string]bool{
	"seesaw/internal/sim":         true,
	"seesaw/internal/machine":     true,
	"seesaw/internal/runner":      true,
	"seesaw/internal/service":     true,
	"seesaw/internal/stats":       true,
	"seesaw/internal/cliutil":     true,
	"seesaw/internal/experiments": true,
	"seesaw/internal/evolve":      true,
	"seesaw/internal/store":       true,
	"seesaw/internal/workload":    true,
	"seesaw/internal/trace":       true,
}

func main() {
	dir := flag.String("dir", "cmd", "directory tree whose Go files are checked")
	flag.Parse()

	var violations []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(*dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			if !strings.HasPrefix(p, "seesaw/") {
				continue // stdlib; the module has no external deps
			}
			if !allowed[p] {
				pos := fset.Position(imp.Pos())
				violations = append(violations,
					fmt.Sprintf("%s:%d: imports %s", pos.Filename, pos.Line, p))
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "importgate:", err)
		os.Exit(1)
	}
	if len(violations) > 0 {
		sort.Strings(violations)
		fmt.Fprintf(os.Stderr, "importgate: %d disallowed import(s) in %s/:\n", len(violations), *dir)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, " ", v)
		}
		fmt.Fprintln(os.Stderr, "route new needs through the sim facade (internal/sim/facade.go) or another allowed surface")
		os.Exit(1)
	}
	fmt.Printf("importgate: %s/ imports are clean\n", *dir)
}
