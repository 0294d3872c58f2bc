package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciPattern finds the -run, -bench and -fuzz patterns of go test lines:
// -run 'A|B', -bench=X, -fuzz=FuzzY, quoted or not.
var ciPattern = regexp.MustCompile(`-(run|bench|fuzz)(?:=|\s+)(?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// ciFlagPrefixes names the functions each flag selects from.
var ciFlagPrefixes = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// TestCINamesResolve fails when an alternative of a -run, -bench or -fuzz
// pattern in the CI workflow matches no Test, Benchmark or Fuzz function
// of the module. go test -run X with no match prints "no tests to run"
// and passes, so a deleted or renamed test would otherwise empty a CI
// step without a word. The explicit run-nothing pattern ^$ is exempt.
func TestCINamesResolve(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := testFuncNames(t, ".")
	patterns := ciPattern.FindAllStringSubmatch(string(yml), -1)
	if len(patterns) == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern in the CI workflow")
	}
	for _, m := range patterns {
		flag, pat := m[1], m[2]+m[3]+m[4]
		prefixes := ciFlagPrefixes[flag]
		for _, alt := range topLevelAlternatives(pat) {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-%s %q: alternative %q: %v", flag, pat, alt, err)
				continue
			}
			if !matchesAny(re, names, prefixes) {
				t.Errorf("-%s %q: alternative %q names no %s function in the module", flag, pat, alt, strings.Join(prefixes, "/"))
			}
		}
	}
}

// topLevelAlternatives splits a pattern at the | signs outside
// parentheses, and keeps only the part before a subtest separator /.
func topLevelAlternatives(pat string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range pat {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pat[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, pat[start:])
	for i, alt := range out {
		out[i], _, _ = strings.Cut(alt, "/")
	}
	return out
}

func matchesAny(re *regexp.Regexp, names []string, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// testFuncNames lists the top-level function names of every _test.go
// file under root, whatever its build tags.
func testFuncNames(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
