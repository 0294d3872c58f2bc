package runtime

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLineBudget holds the two packages that carry the protocol to the
// committed budget in testdata/line_budget: non-test lines of
// internal/netsim + internal/runtime, counted as
//
//	find internal/netsim internal/runtime -name '*.go' -not -name '*_test.go' | xargs cat | wc -l
//
// counts them (ROADMAP, "Deletion sweep and a line budget"). A change
// that needs more lowers something else or raises the number in the same
// commit and says what it bought.
func TestLineBudget(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "line_budget"))
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("testdata/line_budget: %v", err)
	}
	total := 0
	for _, dir := range []string{".", filepath.Join("..", "netsim")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			total += bytes.Count(src, []byte("\n"))
		}
	}
	if total > budget {
		t.Fatalf("internal/netsim + internal/runtime hold %d non-test lines, budget %d", total, budget)
	}
	t.Logf("%d non-test lines, budget %d", total, budget)
}
