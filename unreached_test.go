package bench

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The reachability gate. TestNoUnreachedCode (reach_test.go, built only
// under -tags reach because it links every program) fails when a
// function no program links is missing from testdata/unreached, or when
// a row there names a function that is now linked or gone. This file is
// the half tier-1 runs: it reads the source with go/parser alone and
// checks that every row's reason holds.

const modulePath = "nmvgas"

// declFunc is one non-generic function or method declared in a
// non-main, non-test file of the default build.
type declFunc struct {
	pkg  string // import path
	name string // "F", or "T.M" for a method on T or *T
	ptr  bool   // the receiver is *T
	pos  token.Position
	end  token.Position
}

func (d declFunc) key() string { return d.pkg + " " + d.name }

// symbol is the linker's name for d.
func (d declFunc) symbol() string {
	t, m, ok := strings.Cut(d.name, ".")
	if !ok {
		return d.pkg + "." + d.name
	}
	if d.ptr {
		return d.pkg + ".(*" + t + ")." + m
	}
	return d.pkg + "." + t + "." + m
}

// sourcePkg is one parsed non-main package of the module.
type sourcePkg struct {
	path  string
	files []*ast.File
}

// parseModule parses the default-build, non-test files of every non-main
// package under root.
func parseModule(t *testing.T, root string) (*token.FileSet, []sourcePkg) {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []sourcePkg
	err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, f := range ents {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				continue
			}
			af, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if af.Name.Name == "main" {
				return nil
			}
			files = append(files, af)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, sourcePkg{path: path, files: files})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// declaredFuncs lists the non-generic functions and methods of pkgs.
func declaredFuncs(fset *token.FileSet, pkgs []sourcePkg) []declFunc {
	var out []declFunc
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Type.TypeParams != nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				df := declFunc{pkg: p.path, name: fd.Name.Name, pos: fset.Position(fd.Pos()), end: fset.Position(fd.End())}
				if fd.Recv != nil {
					typ := fd.Recv.List[0].Type
					if st, ok := typ.(*ast.StarExpr); ok {
						df.ptr, typ = true, st.X
					}
					id, ok := typ.(*ast.Ident)
					if !ok {
						continue // a generic receiver, T[P]
					}
					df.name = id.Name + "." + df.name
				}
				out = append(out, df)
			}
		}
	}
	return out
}

// unreachedRow is one line of testdata/unreached:
//
//	<import path> <F or T.M> <reason>  # why it stays
type unreachedRow struct {
	line           int
	pkg, fn, cause string
}

func (r unreachedRow) key() string { return r.pkg + " " + r.fn }

func readUnreached(t *testing.T, path string) []unreachedRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []unreachedRow
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("%s:%d: want <import path> <function> <reason>, got %q", path, n, line)
		}
		cause := strings.Join(fields[2:], " ")
		rows = append(rows, unreachedRow{line: n, pkg: fields[0], fn: fields[1], cause: cause})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// facadeNames collects what the vgas facade exposes from other packages:
// the functions it re-exports by value (lco.MinI64) and the types it
// aliases (World = runtime.World), each as "<import path> <name>".
func facadeNames(pkgs []sourcePkg) (funcs, aliased map[string]bool) {
	funcs, aliased = map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		if p.path != modulePath+"/vgas" {
			continue
		}
		for _, f := range p.files {
			imports := map[string]string{}
			for _, im := range f.Imports {
				path, _ := strconv.Unquote(im.Path.Value)
				name := path[strings.LastIndex(path, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok && n.Assign.IsValid() {
						if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
							aliased[imports[x.Name]+" "+sel.Sel.Name] = true
						}
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcs[imports[x.Name]+" "+n.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	return funcs, aliased
}

// checkReason says why row's reason does not hold, or returns "".
//
//   - facade: the function is declared in vgas, re-exported there, or a
//     method of a type vgas aliases;
//   - readme: README.md names it ("F" or "T.M");
//   - followup:<item>: ROADMAP.md has an item whose bold title starts
//     with <item>, the change that moves or deletes the function.
func checkReason(row unreachedRow, readme, roadmap string, funcs, aliased map[string]bool) string {
	typ, _, isMethod := strings.Cut(row.fn, ".")
	switch {
	case row.cause == "facade":
		if row.pkg == modulePath+"/vgas" {
			return ""
		}
		if !isMethod && funcs[row.pkg+" "+row.fn] || isMethod && aliased[row.pkg+" "+typ] {
			return ""
		}
		return "not declared in vgas, re-exported there, or a method of a type vgas aliases"
	case row.cause == "readme":
		if strings.Contains(readme, row.fn) {
			return ""
		}
		return "README.md does not name " + row.fn
	case strings.HasPrefix(row.cause, "followup:"):
		item := strings.TrimPrefix(row.cause, "followup:")
		if item != "" && strings.Contains(roadmap, "- **"+item) {
			return ""
		}
		return fmt.Sprintf("ROADMAP.md has no item titled %q", item)
	}
	return "reason is not one of facade, readme, followup:<ROADMAP item>"
}

// TestUnreachedRowsHaveReasons checks testdata/unreached without building
// anything: each row names a declared non-generic function once, and its
// reason holds.
func TestUnreachedRowsHaveReasons(t *testing.T) {
	fset, pkgs := parseModule(t, ".")
	declared := map[string]bool{}
	for _, d := range declaredFuncs(fset, pkgs) {
		declared[d.key()] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs, aliased := facadeNames(pkgs)
	seen := map[string]bool{}
	for _, r := range readUnreached(t, "testdata/unreached") {
		switch {
		case seen[r.key()]:
			t.Errorf("testdata/unreached:%d: %s listed twice", r.line, r.key())
		case !declared[r.key()]:
			t.Errorf("testdata/unreached:%d: %s is not a non-generic function of a non-main package", r.line, r.key())
		}
		seen[r.key()] = true
		if why := checkReason(r, string(readme), string(roadmap), funcs, aliased); why != "" {
			t.Errorf("testdata/unreached:%d: %s: %s", r.line, r.key(), why)
		}
	}
}
