package runtime

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmvgas/internal/netsim"
)

// nicCounterNames maps every netsim.Counter to its constant's name without
// the "Cnt" prefix, read from the declaration itself so the ledger keys
// NIC counters by name, whatever NICStats' layout.
func nicCounterNames(t *testing.T) map[netsim.Counter]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "netsim", "niccore.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[netsim.Counter]string)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for i, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if i == 0 && (vs.Type == nil || fmt.Sprint(vs.Type) != "Counter") {
				break
			}
			for _, id := range vs.Names {
				if n, ok := strings.CutPrefix(id.Name, "Cnt"); ok && n != "None" {
					names[netsim.Counter(i)] = n
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no Counter constants found in netsim/niccore.go")
	}
	return names
}

// nicCount reads counter c from a NIC snapshot.
func nicCount(s *netsim.NICStats, c netsim.Counter) uint64 { return s[c] }

// counterRow runs one observer scenario and renders every counter a
// reader can reach: the StatsTable text, the delivery and membership
// reports, and each rank's NIC counters by name.
func counterRow(t *testing.T, sc observerScenario, mode Mode, names map[netsim.Counter]string) string {
	cfg := Config{Ranks: 4, Mode: mode, Engine: EngineDES, Metrics: true, Heat: HeatConfig{Enabled: true}}
	if sc.mutate != nil {
		sc.mutate(&cfg)
	}
	w := testWorld(t, cfg)
	sc.run(t, w)

	var b strings.Builder
	fmt.Fprintf(&b, "== %s %v\n", sc.name, mode)
	if err := w.StatsTable().Fprint(&b); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "delivery=%+v\nmembership=%+v\n", w.DeliveryStats(), w.MembershipStats())
	for r := 0; r < w.Ranks(); r++ {
		s := w.net.Stats(r)
		fmt.Fprintf(&b, "nic%d", r)
		for c := netsim.CntNone + 1; c < netsim.NumCounters; c++ {
			if n, ok := names[c]; ok {
				fmt.Fprintf(&b, " %s:%d", n, nicCount(&s, c))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCounterLedgerMatchesParent holds every counter reader to what it
// printed at the commit before counters were named once per layer
// (631061b): each observer scenario × mode on DES, with Metrics and heat
// on, must reproduce testdata/counter_ledger byte for byte. Moving a
// count, renaming a row or reordering the table moves a line; a change
// of how counters are stored or listed moves none.
func TestCounterLedgerMatchesParent(t *testing.T) {
	names := nicCounterNames(t)
	var got strings.Builder
	for _, sc := range observerScenarios {
		for _, mode := range sc.modes {
			got.WriteString(counterRow(t, sc, mode, names))
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "counter_ledger"))
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, ln := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(ln, "#") {
			wl = append(wl, ln)
		}
	}
	gl := strings.Split(got.String(), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("testdata/counter_ledger line %d moved\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
