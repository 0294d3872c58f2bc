package exp

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"nmvgas/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// wallClock declares, per experiment, the columns of `vgasbench -quick`
// that read the host's wall clock. They are the only cells the fixture
// does not pin; every other cell is a deterministic simulation result.
var wallClock = map[string][]string{
	"F17": {"wall_ms", "kevents_per_s", "ns_per_event"},
}

var quickRun struct {
	once   sync.Once
	tables []*stats.Table // Registry order
}

// quickTables runs every experiment once with `vgasbench -quick`'s
// options and shares the tables between the tests below.
func quickTables() []*stats.Table {
	quickRun.once.Do(func() {
		for _, e := range Registry {
			quickRun.tables = append(quickRun.tables, e.Run(quick()))
		}
	})
	return quickRun.tables
}

// maskWallClock blanks experiment id's declared wall-clock columns in its
// rendered table and re-joins every line on single spaces, so the masked
// cells' widths cannot shift the rest of the row.
func maskWallClock(id, table string) string {
	cols := wallClock[id]
	if cols == nil {
		return table
	}
	lines := strings.Split(table, "\n")
	header := strings.Fields(lines[1])
	for i, line := range lines {
		f := strings.Fields(line)
		for j := range f {
			if i >= 2 && j < len(header) && slices.Contains(cols, header[j]) {
				f[j] = "*"
			}
		}
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

// TestQuickGolden pins the whole reproduction: the output of
// `vgasbench -quick` (every table, in registry order) must equal
// testdata/quick.golden outside the declared wall-clock columns. A change
// that moves a simulated number shows up as this fixture's diff;
// `go test ./internal/exp -run TestQuickGolden -update` rewrites it.
func TestQuickGolden(t *testing.T) {
	var out bytes.Buffer
	var got []string
	for _, tb := range quickTables() {
		var b bytes.Buffer
		if err := tb.Fprint(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n') // vgasbench prints a blank line after each table
		got = append(got, b.String())
		out.Write(b.Bytes())
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(raw), "\n\n")
	want = want[:len(want)-1] // the file ends with a table's blank line
	if len(want) != len(got) {
		t.Fatalf("golden holds %d tables, the registry runs %d", len(want), len(got))
	}
	for i, e := range Registry {
		if g, w := maskWallClock(e.ID, got[i]), maskWallClock(e.ID, want[i]); g != w {
			t.Errorf("%s moved from testdata/quick.golden\n got:\n%s\nwant:\n%s", e.ID, g, w)
		}
	}
}

// TestPaperClaim states the paper's claim as predicates over the same
// tables: network-managed AGAS costs about what static PGAS does and less
// than software AGAS, in-network forwarding beats a NACK round trip, and
// the bounded NIC table is the one place the design pays. Around it:
// software AGAS degrades with churn and network-managed AGAS does not
// fall below it (F9); the saving over software AGAS is the same at every
// fabric distance (F18); replica reads never detour (F16); the heat
// policy pays under agas-nm (F19); and faults or a crash never reach
// what the application sees (C1/C2).
func TestPaperClaim(t *testing.T) {
	byID := map[string]*stats.Table{}
	for i, tb := range quickTables() {
		byID[Registry[i].ID] = tb
	}
	col := func(id, name string) int {
		i := slices.Index(byID[id].Columns, name)
		if i < 0 {
			t.Fatalf("%s has no column %q", id, name)
		}
		return i
	}
	for _, id := range []string{"T1", "T2"} {
		tb := byID[id]
		pg, sw, nm, ratio := col(id, "pgas_us"), col(id, "agas_sw_us"), col(id, "agas_nm_us"), col(id, "nm_vs_pgas")
		for r := 0; r < tb.NumRows(); r++ {
			if p, n, s := cell(t, tb, r, pg), cell(t, tb, r, nm), cell(t, tb, r, sw); !(p <= n && n < s) {
				t.Errorf("%s row %d: want pgas %v <= agas-nm %v < agas-sw %v", id, r, p, n, s)
			}
			if x := cell(t, tb, r, ratio); x > 1.05 {
				t.Errorf("%s row %d: agas-nm costs %vx pgas, want <= 1.05", id, r, x)
			}
		}
	}
	a1 := byID["A1"]
	first := col("A1", "first_access_us")
	if a1.Rows()[0][0] != "forward+push" || a1.Rows()[2][0] != "nack" {
		t.Fatalf("A1 rows %v: want forward+push first and nack third", a1.Rows())
	}
	if fwd, nack := cell(t, a1, 0, first), cell(t, a1, 2, first); fwd >= nack {
		t.Errorf("A1: forward+push first access %v must beat nack's %v", fwd, nack)
	}
	f3 := byID["F3"]
	ws, nmHit, swHit := col("F3", "working_set_blocks"), col("F3", "nm_hit_rate"), col("F3", "sw_hit_rate")
	for r := 0; r < f3.NumRows(); r++ {
		blocks, nm, sw := cell(t, f3, r, ws), cell(t, f3, r, nmHit), cell(t, f3, r, swHit)
		if fits := blocks <= 32; fits && nm < 0.99 || !fits && nm > 0.5 {
			t.Errorf("F3 %v blocks: NM hit rate %v, want 1.00 within the 32-entry table and a collapse past it", blocks, nm)
		}
		if sw != 1 {
			t.Errorf("F3 %v blocks: SW hit rate %v, want 1.00 (unbounded cache)", blocks, sw)
		}
	}
	f9 := byID["F9"]
	swUp, nmUp := col("F9", "sw_update_Kops"), col("F9", "nm_Kops")
	for r := 0; r < f9.NumRows(); r++ {
		if sw, nm := cell(t, f9, r, swUp), cell(t, f9, r, nmUp); nm <= sw {
			t.Errorf("F9 row %d: agas-nm %v Kops must beat agas-sw update %v", r, nm, sw)
		}
		if r > 0 && cell(t, f9, r, swUp) >= cell(t, f9, r-1, swUp) {
			t.Errorf("F9 row %d: agas-sw update throughput must fall with churn", r)
		}
	}
	f18 := byID["F18"]
	pgPut, swSt, nmSt := col("F18", "pgas_put_us"), col("F18", "sw_stale_us"), col("F18", "nm_stale_us")
	if f18.NumRows() != 3 {
		t.Fatalf("F18 has %d rows, want hops 1/3/5", f18.NumRows())
	}
	var saving float64
	for r := 0; r < f18.NumRows(); r++ {
		p, n, s := cell(t, f18, r, pgPut), cell(t, f18, r, nmSt), cell(t, f18, r, swSt)
		if !(p < n && n < s) {
			t.Errorf("F18 row %d: want pgas %v < agas-nm %v < agas-sw %v", r, p, n, s)
		}
		// The cells carry two decimals; compare the saving in cents.
		if d := math.Round((s - n) * 100); r == 0 {
			saving = d
		} else if d != saving {
			t.Errorf("F18 row %d: nm saves %v µs over sw, row 0 saves %v µs; want a constant saving", r, d/100, saving/100)
		}
	}
	f16 := byID["F16"]
	detours := col("F16", "read_detours")
	for r := 0; r < f16.NumRows(); r++ {
		if d := cell(t, f16, r, detours); d != 0 {
			t.Errorf("F16 row %d: %v read detours in the write-free phase, want 0", r, d)
		}
	}
	f19 := byID["F19"]
	pre, post := col("F19", "pre_ops_ms"), col("F19", "post_ops_ms")
	rows19 := map[string]int{}
	for r, row := range f19.Rows() {
		rows19[row[0]+"/"+row[1]] = r
	}
	off, okOff := rows19["agas-nm/off"]
	on, okOn := rows19["agas-nm/on"]
	if !okOff || !okOn {
		t.Fatalf("F19 lacks agas-nm policy off/on rows: %v", f19.Rows())
	}
	for _, c := range []int{pre, post} {
		if cell(t, f19, on, c) <= cell(t, f19, off, c) {
			t.Errorf("F19 %s: agas-nm with the policy on (%v) must beat it off (%v)",
				f19.Columns[c], cell(t, f19, on, c), cell(t, f19, off, c))
		}
	}
	for _, id := range []string{"C1", "C2"} {
		golden := col(id, "golden")
		for r, row := range byID[id].Rows() {
			if row[golden] != "yes" {
				t.Errorf("%s row %d %v: golden %q, want yes", id, r, row, row[golden])
			}
		}
	}
}
