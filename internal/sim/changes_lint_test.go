package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// controlInputs are the fields whose writes reach the runs only through the
// change count, which makes the next Step check them: a core's request,
// idle, offline and app, and the machine's thermal cap.
// The lint matches them by field name, which is stricter than it needs to
// be where another record of the package has a field of the same name.
var controlInputs = map[string]bool{"request": true, "idle": true, "offline": true, "app": true, "thermalCap": true}

// lintChanges parses the files and returns "function: fields" for each
// function that assigns a control input without bumping the change count
// anywhere in its body, closures included, sorted; and how many functions
// assign one at all.
func lintChanges(t *testing.T, paths []string) (unbumped []string, writers int) {
	t.Helper()
	fset := token.NewFileSet()
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var writes []string
			bumped := false
			assigned := func(e ast.Expr) {
				if s, ok := e.(*ast.SelectorExpr); ok {
					bumped = bumped || s.Sel.Name == "changes"
					if controlInputs[s.Sel.Name] {
						writes = append(writes, s.Sel.Name)
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, e := range s.Lhs {
						assigned(e)
					}
				case *ast.IncDecStmt:
					assigned(s.X)
				}
				return true
			})
			if len(writes) > 0 {
				writers++
				if !bumped {
					unbumped = append(unbumped, fn.Name.Name+": "+strings.Join(writes, ", "))
				}
			}
		}
	}
	slices.Sort(unbumped)
	return unbumped, writers
}

// Step checks the runs against their inputs only when the change count
// moved, so every function of the package that writes a control input
// bumps it: a new setter that forgets fails here rather than serving a
// stale run. The fixture shows the lint red on setters that forget, and
// green on ones that bump beside a closure or by assignment.
func TestControlWritesBumpChanges(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	paths = slices.DeleteFunc(paths, func(p string) bool { return strings.HasSuffix(p, "_test.go") })
	unbumped, writers := lintChanges(t, paths)
	if len(unbumped) != 0 {
		t.Errorf("control inputs written without bumping the change count:\n%s", strings.Join(unbumped, "\n"))
	}
	if writers < 6 {
		t.Errorf("the lint found %d functions writing a control input, want at least the six setters", writers)
	}

	want := []string{"SetIdle: idle", "SetThermalCap: thermalCap"}
	if got, _ := lintChanges(t, []string{filepath.Join("testdata", "unbumped.go")}); !slices.Equal(got, want) {
		t.Errorf("the fixture reads %q, want %q", got, want)
	}
}
