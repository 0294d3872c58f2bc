package runtime

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// enginePorts are the two files that may know which engine runs the
// world: the goroutine engine's port (chanNet) and the DES engine's
// (desNet). Every other file reaches the engine through the port World
// holds (network) or a rank's Executor.
var enginePorts = map[string]bool{"net.go": true, "desnet.go": true}

// TestEngineChosenOnce holds the engine to one choice, made in NewWorld's
// switch. In non-test files of this package it fails on a nil test of an
// engine (eng == nil, eng != nil), on asking a DES engine whether it is
// sharded (.Sharded(), .Par()), on a *goExec or *desExec type assertion
// outside the two engine ports, and on a read of Config.Engine anywhere
// but NewWorld's switch and the StatsTable title.
func TestEngineChosenOnce(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forks := regexp.MustCompile(`eng [!=]= nil|\.Sharded\(\)|\.Par\(\)`)
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range forks.FindAllIndex(src, -1) {
			t.Errorf("%s:%d: engine fork %q", name, 1+bytes.Count(src[:loc[0]], []byte("\n")), src[loc[0]:loc[1]])
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var allowed ast.Node // the one place this function may read cfg.Engine
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SwitchStmt:
					if fn.Name.Name == "NewWorld" && n.Tag != nil && isEngineRead(n.Tag) {
						allowed = n
					}
				case *ast.TypeAssertExpr:
					if execType(n.Type) && !enginePorts[name] {
						t.Errorf("%s: %s asserts an executor's type outside the engine ports", fset.Position(n.Pos()), fn.Name.Name)
					}
				case *ast.SelectorExpr:
					inSwitch := allowed != nil && n.Pos() >= allowed.Pos() && n.End() <= allowed.End()
					if isEngineRead(n) && !inSwitch && fn.Name.Name != "StatsTable" {
						t.Errorf("%s: %s reads Config.Engine", fset.Position(n.Pos()), fn.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// TestOneWriterPackages holds the software AGAS tables, the block store,
// the NIC translation table, membership and the workloads' per-rank
// state to one writer each: every one belongs to a rank, which code
// outside it reaches through the runtime's doors (a claim, a post,
// World.Block), so none takes a lock or an atomic. It fails on "sync."
// or "atomic." in the non-test files of internal/agas and
// internal/workloads, in internal/gas/store.go and
// internal/netsim/transtable.go (whose table trusts its rank's plain
// epoch), and in membership.go anywhere but the world-side verdict
// table's lock and the pending count AwaitMember polls.
func TestOneWriterPackages(t *testing.T) {
	var files []string
	for _, dir := range []string{"agas", "workloads"} {
		matches, err := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	files = append(files, filepath.Join("..", "gas", "store.go"), filepath.Join("..", "netsim", "transtable.go"), "membership.go")
	shared := regexp.MustCompile(`sync\.|atomic\.`)
	verdictTable := regexp.MustCompile(`^\s*(mu\s+sync\.Mutex|pending\s+atomic\.Int64)\s*$`)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		for _, loc := range shared.FindAllIndex(src, -1) {
			n := bytes.Count(src[:loc[0]], []byte("\n"))
			if name == "membership.go" && verdictTable.MatchString(lines[n]) {
				continue
			}
			t.Errorf("%s:%d: %q in a one-writer table", name, n+1, src[loc[0]:loc[1]])
		}
	}
}

// isEngineRead reports whether e is cfg.Engine, w.cfg.Engine or
// w.Config().Engine.
func isEngineRead(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Engine" {
		return false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name == "cfg"
	case *ast.SelectorExpr:
		return x.Sel.Name == "cfg"
	case *ast.CallExpr:
		f, ok := x.Fun.(*ast.SelectorExpr)
		return ok && f.Sel.Name == "Config"
	}
	return false
}

// execType reports whether e is *goExec or *desExec.
func execType(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && (id.Name == "goExec" || id.Name == "desExec")
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

// TestExportBudget is TestOptionBudget for the API surface: it holds the
// exported names of internal/runtime and vgas — top-level constants,
// variables, types and functions, plus exported methods on exported
// types, in non-test files — to the committed budget in
// testdata/export_budget. A name only tests call is unexported or
// deleted; a change that exports more raises the number in the same
// commit and names the caller outside the package that needs it.
func TestExportBudget(t *testing.T) {
	budget := readBudget(t, "export_budget")
	n := 0
	for _, dir := range []string{".", filepath.Join("..", "..", "vgas")} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				n += countExports(f)
			}
		}
	}
	if n > budget {
		t.Fatalf("internal/runtime + vgas export %d names, budget %d", n, budget)
	}
	t.Logf("%d exported names, budget %d", n, budget)
}

// countExports counts f's exported top-level names and its exported
// methods on exported receiver types.
func countExports(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				n++
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}
