package runtime

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// readBudget reads the committed number in testdata/name.
func readBudget(t *testing.T, name string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	budget, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("testdata/%s: %v", name, err)
	}
	return budget
}

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
	budget := readBudget(t, "line_budget")
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

// TestOptionBudget is TestLineBudget for options: it holds the settable
// values reachable from Config — exported fields, counted through
// struct-typed fields (Model, Policy, Faults, Coalesce, Reliability,
// Heat, Pulse and its Watchdogs) down to their leaves — to the committed
// budget in testdata/option_budget. A value no caller varies is a
// constant; a change that adds an option raises the number in the same
// commit and names the two callers that need different values.
func TestOptionBudget(t *testing.T) {
	budget := readBudget(t, "option_budget")
	var count func(reflect.Type) int
	count = func(ty reflect.Type) int {
		n := 0
		for i := 0; i < ty.NumField(); i++ {
			switch f := ty.Field(i); {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct:
				n += count(f.Type)
			default:
				n++
			}
		}
		return n
	}
	n := count(reflect.TypeOf(Config{}))
	if n > budget {
		t.Fatalf("Config holds %d settable values, budget %d", n, budget)
	}
	t.Logf("%d settable values, budget %d", n, budget)
}
