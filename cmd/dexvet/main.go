// Command dexvet is the repo's invariant checker: a multichecker over
// the three analyzers in internal/analysis that mechanize the engine's
// correctness contracts — guarddiscipline (enterOp/exitOp and façade
// locking on dex), determinism (no wall clock, no global math/rand, no
// map-iteration-order leaks in the engine packages) and noalloc (the
// //dexvet:noalloc hot paths have no escaping allocation sites).
//
// Usage:
//
//	go run ./cmd/dexvet [-rules list] [packages]
//
// Packages default to ./... relative to the current directory, which
// must be inside the module. Exit status 1 means unsuppressed
// findings; every finding is either fixed or annotated with
// //dexvet:allow <rule> <reason> before a change merges (`make lint`
// enforces this in CI).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/guarddiscipline"
	"repro/internal/analysis/noalloc"
)

var all = []*analysis.Analyzer{
	determinism.Analyzer,
	guarddiscipline.Analyzer,
	noalloc.Analyzer,
}

func main() {
	rules := flag.String("rules", "", "comma-separated analyzer subset to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dexvet [-rules list] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	selected := all
	if *rules != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*rules, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "dexvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dexvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(modRoot, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dexvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dexvet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		rel := d.Pos.Filename
		if r, err := filepath.Rel(modRoot, rel); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", rel, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dexvet: %d finding(s) — fix them or annotate with //dexvet:allow <rule> <reason>\n", len(diags))
		os.Exit(1)
	}
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}
