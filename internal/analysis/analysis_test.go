package analysis_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// stub is a no-op analyzer that only contributes its name to the set of
// known //dexvet:allow rules.
var stub = &analysis.Analyzer{
	Name:    "stub",
	Doc:     "test stub",
	Applies: func(pkg *analysis.Package) bool { return false },
	Run:     func(pass *analysis.Pass) error { return nil },
}

// TestDirectiveValidation checks that malformed //dexvet: comments and
// unused allows are reported under the "dexvet" pseudo-rule with the
// expected messages — the analysistest harness cannot cover these,
// because a `// want` cannot share a line with a line-comment directive.
func TestDirectiveValidation(t *testing.T) {
	pkgs, err := analysis.Load(moduleRoot(t), "repro/internal/analysis/testdata/src/directives")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{stub})
	if err != nil {
		t.Fatalf("running: %v", err)
	}

	wants := []string{
		"needs a reason",
		"needs a rule name",
		"unknown directive //dexvet:frobnicate",
		"//dexvet:noalloc must be in a function's doc comment",
		"//dexvet:allow stub suppresses nothing",
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, d := range diags {
		if d.Rule != "dexvet" {
			t.Errorf("finding %d: rule = %q, want the dexvet pseudo-rule", i, d.Rule)
		}
		if !strings.Contains(d.Msg, wants[i]) {
			t.Errorf("finding %d: %q does not mention %q", i, d.Msg, wants[i])
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}
