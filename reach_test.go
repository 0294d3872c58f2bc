//go:build reach

package bench

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreachedCode links every main package of the module with
// inlining off and the linker's dependency dump on, and counts a function
// reached when any program links it. Every unreached function must have a
// row in testdata/unreached, and every row must name an unreached
// function. Run it with:
//
//	go test -count=1 -tags reach -run TestNoUnreachedCode .
//
// A method the linker keeps for an interface counts as reached, and
// generic functions and main packages are not scanned.
func TestNoUnreachedCode(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(out))
	if len(mains) == 0 {
		t.Fatal("go list found no main packages")
	}
	linked := map[string]bool{}
	dir := t.TempDir()
	for _, m := range mains {
		var stderr bytes.Buffer
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "bin"), "-gcflags=all=-l", "-ldflags=-dumpdep", m)
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go build %s: %v\n%s", m, err, stderr.Bytes())
		}
		// Each dump line is "from -> to".
		for _, line := range strings.Split(stderr.String(), "\n") {
			if from, to, ok := strings.Cut(line, " -> "); ok {
				linked[from], linked[to] = true, true
			}
		}
	}

	fset, pkgs := parseModule(t, ".")
	unreached := map[string]declFunc{}
	for _, d := range declaredFuncs(fset, pkgs) {
		if !linked[d.symbol()] {
			unreached[d.key()] = d
		}
	}
	listed := map[string]unreachedRow{}
	for _, r := range readUnreached(t, "testdata/unreached") {
		listed[r.key()] = r
	}
	lines := 0
	for _, k := range sortedKeys(unreached) {
		d := unreached[k]
		lines += d.end.Line - d.pos.Line + 1
		if _, ok := listed[k]; !ok {
			t.Errorf("%s:%d: %s is linked by no program and has no row in testdata/unreached", d.pos.Filename, d.pos.Line, k)
		}
	}
	for _, k := range sortedKeys(listed) {
		if _, ok := unreached[k]; !ok {
			t.Errorf("testdata/unreached:%d: %s is linked by a program or no longer declared; drop the row", listed[k].line, k)
		}
	}
	t.Logf("%d main packages; %d functions (%d lines) linked by none; %d rows listed", len(mains), len(unreached), lines, len(listed))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
