package padpd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// Reasons an export no program calls stays.
const (
	readBack   = "tests read this live state back"
	testDriver = "tests drive the simulator through it"
	modelRef   = "tests of other packages use it as the model's reference"
	paperClaim = "§4.3 throttle compensation, reproduced by sched's tests (EXPERIMENTS.md)"
)

// exportAllowlist names the exported functions and methods under internal/
// that no program calls but that stay, each with the reason it stays. A key
// is the package directory, the receiver's type name for a method, and the
// function's name.
var exportAllowlist = map[string]string{
	"internal/core.FrequencyShares.Targets":        readBack,
	"internal/core.PerformanceShares.Targets":      readBack,
	"internal/core.PowerShares.Targets":            readBack,
	"internal/core.SLOFeedback.Targets":            readBack,
	"internal/cpu.FreqSpec.Levels":                 modelRef,
	"internal/daemon.Daemon.Parked":                readBack,
	"internal/ledger.Ledger.AttributedUJ":          readBack,
	"internal/metrics.Histogram.Count":             readBack,
	"internal/metrics/decisions.Journal.Last":      readBack,
	"internal/metrics/decisions.Journal.Total":     readBack,
	"internal/power.Model.Package":                 modelRef,
	"internal/sched.Core.AddShares":                paperClaim,
	"internal/sched.Core.Compensate":               paperClaim,
	"internal/sched.Core.SetFrequency":             paperClaim,
	"internal/sim.Machine.ActiveCores":             readBack,
	"internal/sim.Machine.CurrentCState":           readBack,
	"internal/sim.Machine.Offline":                 readBack,
	"internal/sim.Machine.Request":                 readBack,
	"internal/sim.Machine.Unpin":                   testDriver,
	"internal/svc.Service.InFlight":                readBack,
	"internal/svc.Service.MeanLatency":             readBack,
	"internal/workload.Instance.Progress":          readBack,
	"internal/workload.Instance.Reset":             testDriver,
	"internal/workload.Instance.TotalInstructions": readBack,
}

// stdInterfaceMethods are methods a repo type declares so that the standard
// library calls it through an interface: fmt.Stringer, error, http.Handler,
// io.Reader/Writer/Closer, json and encoding Marshaler/Unmarshaler,
// flag.Value, and sort.Interface/heap.Interface.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Set": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// Every exported function and method declared in a non-test file under
// internal/ is referenced from a non-test Go file: a command, an example,
// the façade, another internal package or the benchmark module. A method
// named in an interface the repo declares, or in stdInterfaceMethods, is
// called through it; the test-support package flighttest is exempt. What
// stays uncalled on purpose is on exportAllowlist with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	problems, err := exportProblems(os.DirFS("."), "repro", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// The lint on an in-memory tree: what it reports and what it lets pass.
func TestExportLintFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte(`package a
type Shape interface{ Area() int }
type Sq struct{}
func (Sq) Area() int { return 1 }
func (Sq) Side() int { return 1 }
func Uncalled() { Uncalled() }
func OnlyTested() {}
func BenchOnly() {}
func Used() {}
func Listed() {}`)},
		"internal/a/a_test.go": {Data: []byte("package a\nfunc use() { OnlyTested(); Sq{}.Side() }")},
		"cmd/x/main.go": {Data: []byte(`package main
import ("fmt"; "m/internal/a")
func main() { a.Used(); a.Listed(); fmt.Println() }`)},
		"benchmark/main.go": {Data: []byte("package main\nimport \"m/internal/a\"\nfunc main() { a.BenchOnly() }")},
	}
	got, err := exportProblems(fsys, "m", map[string]string{
		"internal/a.Gone": "x", "internal/a.Listed": "x", "internal/a.Sq.Side": "",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a.Gone: allowlisted but not declared",
		"internal/a.Listed: allowlisted but a program calls it",
		"internal/a.OnlyTested: no program calls it",
		"internal/a.Sq.Side: allowlisted without a reason",
		"internal/a.Uncalled: no program calls it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// exportProblems type-checks the non-test Go files of the tree in fsys,
// whose root has import path module, and reports each uncalled export under
// internal/ that allow does not name, and each entry of allow that has no
// reason or does not name an uncalled export. A package outside the module
// is an empty stub: nothing in it calls back into the repo.
func exportProblems(fsys fs.FS, module string, allow map[string]string) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		files[path.Dir(p)] = append(files[path.Dir(p)], f)
		return err
	})
	if err != nil {
		return nil, err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkgs := map[string]*types.Package{}
	var check func(dir string) *types.Package
	imp := importerFunc(func(p string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(p, module+"/")
		if p == module {
			dir, ok = ".", true
		}
		if ok && files[dir] != nil {
			return check(dir), nil
		}
		name := path.Base(p)
		if strings.Trim(name, "v0123456789") == "" {
			name = path.Base(path.Dir(p)) // math/rand/v2
		}
		pkg := types.NewPackage(p, name)
		pkg.MarkComplete()
		return pkg, nil
	})
	check = func(dir string) *types.Package {
		if pkgs[dir] == nil {
			conf := types.Config{Importer: imp, Error: func(error) {}}
			pkgs[dir], _ = conf.Check(path.Join(module, dir), fset, files[dir], info)
		}
		return pkgs[dir]
	}
	used, ifaceMethods := map[types.Object]bool{}, map[string]bool{}
	for dir, dirFiles := range files {
		check(dir)
		for _, f := range dirFiles {
			for _, decl := range f.Decls {
				var self types.Object // a function calling itself is not a caller
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok && fn != self {
							used[fn.Origin()] = true
						}
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	var problems []string
	uncalled := map[string]bool{} // every export the lint covers: is it uncalled?
	for dir, dirFiles := range files {
		if !strings.HasPrefix(dir, "internal/") || path.Base(dir) == "flighttest" {
			continue
		}
		for _, f := range dirFiles {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := dir + "." + fd.Name.Name
				if fd.Recv != nil {
					if ifaceMethods[fd.Name.Name] || stdInterfaceMethods[fd.Name.Name] {
						continue
					}
					key = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				_, listed := allow[key]
				uncalled[key] = !used[info.Defs[fd.Name]]
				if uncalled[key] && !listed {
					problems = append(problems, key+": no program calls it")
				}
			}
		}
	}
	for key, reason := range allow {
		isUncalled, declared := uncalled[key]
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, key+": allowlisted without a reason")
		case !declared:
			problems = append(problems, key+": allowlisted but not declared")
		case !isUncalled:
			problems = append(problems, key+": allowlisted but a program calls it")
		}
	}
	sort.Strings(problems)
	return problems, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvName is the type name of a receiver: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	}
	return e.(*ast.Ident).Name
}
