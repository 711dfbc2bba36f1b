package padpd

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"slices"
	"sort"
	"strconv"
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
	randomMix  = "§6.3's Random robustness row, reproduced by experiments' tests (EXPERIMENTS.md)"
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
	"internal/experiments.RandomRobustness":        randomMix,
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
	"internal/workload.Instance.RunsCompleted":     readBack,
	"internal/workload.Instance.Reset":             testDriver,
	"internal/workload.Instance.TotalInstructions": readBack,
	"internal/workload.SPEC2017":                   testDriver,
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
//
// Every exported package-level name of the façade, the root package, is
// named by a non-test file outside it or by the code of a testable example
// in a root _test.go file, as go doc shows it: the Example function's body,
// or its whole file when the file holds one example and no test. A name
// only a Test uses has no caller, and no façade name may be allowlisted.
func TestEveryExportHasACaller(t *testing.T) {
	problems, err := exportProblems(os.DirFS("."), "repro", exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// knobAllowlist names the knobs under internal/ that no program sets but
// that stay settings, each with the reason.
var knobAllowlist = map[string]string{
	"internal/svc.Config.MaxQueue":                svcWireCounter,
	"internal/svc.Config.Timeout":                 svcWireCounter,
	"internal/cluster/hierarchy.TierConfig.Clock": virtualClock,
	"internal/cluster/hierarchy.LeafConfig.Clock": virtualClock,
}

const (
	svcWireCounter = "its Dropped/Timeouts counter is in the wire status and in powerd's pinned stdout"
	virtualClock   = "nil is the wall clock every program runs on; tests substitute the virtual clock"
)

// Every knob under internal/ — an exported, untagged field of basic
// underlying type in an exported Config or Spec struct, or of func or
// interface type in a Config struct — is set by a
// program: a keyed literal in a non-test file, or an assignment, & or
// ++/-- in a non-test file outside the declaring package. A setting no
// program sets is a constant. What stays unset on purpose is on
// knobAllowlist with its reason.
func TestEveryKnobHasASetter(t *testing.T) {
	problems, err := knobProblems(os.DirFS("."), "repro", knobAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// The knob lint on an in-memory tree: what it reports and what it lets pass.
func TestKnobLintFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte(`package a
import "time"
type Config struct {
	Unset      int
	TestOnly   time.Duration
	Defaulted  float64
	BenchSet   string
	Tagged     int ` + "`json:\"tagged\"`" + `
	Ptr        *int
	Assigned   bool
	Addressed  int
	Stepped    uint
	Listed     int
	Gone       int
	Hook       func()
	Sink       interface{ Put() }
	unexported int
}
type Options struct{ Unset int }
type RunSpec struct{ OnDone func() }
func (c *Config) fill() {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
}`)},
		"internal/a/a_test.go": {Data: []byte("package a\nvar c = Config{TestOnly: 1}")},
		"cmd/x/main.go": {Data: []byte(`package main
import "m/internal/a"
func main() {
	var c a.Config
	c.Assigned = true
	p := &c.Addressed
	c.Stepped++
	_ = a.Config{Gone: *p, Sink: nil}
}`)},
		"benchmark/main.go": {Data: []byte("package main\nimport \"m/internal/a\"\nvar c = a.Config{BenchSet: \"x\"}")},
	}
	got, err := knobProblems(fsys, "m", map[string]string{
		"internal/a.Config.Gone": "x", "internal/a.Config.Listed": "", "internal/a.Config.Removed": "x",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a.Config.Defaulted: no program sets it",
		"internal/a.Config.Gone: allowlisted but a program sets it",
		"internal/a.Config.Hook: no program sets it",
		"internal/a.Config.Listed: allowlisted without a reason",
		"internal/a.Config.Removed: allowlisted but not declared",
		"internal/a.Config.TestOnly: no program sets it",
		"internal/a.Config.Unset: no program sets it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// The export lint on an in-memory tree: what it reports and what it lets
// pass.
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
func Listed() {}
type Result struct{}
func (Result) Series() int { return 1 }
func Compute() (Result, error) { return Result{}, nil }`)},
		"internal/a/a_test.go": {Data: []byte("package a\nfunc use() { OnlyTested(); Sq{}.Side() }")},
		"cmd/x/main.go": {Data: []byte(`package main
import ("fmt"; "sync"; "m"; "m/internal/a")
var compute = sync.OnceValues(a.Compute)
func main() { a.Used(); a.Listed(); r, _ := compute(); fmt.Println(m.Called, r.Series()) }`)},
		"benchmark/main.go": {Data: []byte("package main\nimport \"m/internal/a\"\nfunc main() { a.BenchOnly() }")},
		"m.go": {Data: []byte(`package m
type Exampled int
var Called, SelfUsed, OnlyTested, InHelper, InWholeFile, InInternalExample = 1, 2, 3, 4, 5, 6
func init() { _ = SelfUsed }`)},
		"m_test.go": {Data: []byte(`package m
import "testing"
func TestX(*testing.T) { _ = OnlyTested }
func Example_internal() { _ = InInternalExample }`)},
		"example_test.go": {Data: []byte(`package m_test
import "m"
func Example() { var _ m.Exampled }
func ExampleExampled() {}
func helper() { _ = m.InHelper }`)},
		"example_whole_test.go": {Data: []byte(`package m_test
import "m"
func Example_whole() { helper2() }
func helper2() { _ = m.InWholeFile }`)},
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
		"m.InHelper: no program or example names it",
		"m.OnlyTested: no program or example names it",
		"m.SelfUsed: no program or example names it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// exportProblems type-checks the Go files of the tree in fsys, whose root
// has import path module, and reports each uncalled export under internal/
// that allow does not name, each entry of allow that has no reason or does
// not name an uncalled export, and each exported package-level name of the
// root package that no non-test file outside it and no root example names.
func exportProblems(fsys fs.FS, module string, allow map[string]string) ([]string, error) {
	tr, err := loadTree(fsys, module)
	if err != nil {
		return nil, err
	}
	named := map[string]bool{} // root package-level names named from outside it
	nameRoot := func(info *types.Info, id *ast.Ident) {
		if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == module && obj.Parent() == obj.Pkg().Scope() {
			named[obj.Name()] = true
		}
	}
	used, ifaceMethods := map[types.Object]bool{}, map[string]bool{}
	for dir, dirFiles := range tr.files {
		for _, f := range dirFiles {
			for _, decl := range f.Decls {
				var self types.Object // a function calling itself is not a caller
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = tr.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := tr.info.Uses[n].(*types.Func); ok && fn != self {
							used[fn.Origin()] = true
						}
						if dir != "." {
							nameRoot(tr.info, n)
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
	uncalled := map[string]bool{} // every export the lint covers: is it uncalled?
	for dir, dirFiles := range tr.files {
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
				uncalled[key] = !used[tr.info.Defs[fd.Name]]
			}
		}
	}
	for _, ex := range doc.Examples(tr.rootTests...) {
		ast.Inspect(ex.Code, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				nameRoot(tr.testInfo, id)
			}
			return true
		})
	}
	problems := lintProblems(uncalled, allow, "calls")
	for _, f := range tr.files["."] {
		for _, decl := range f.Decls {
			for _, id := range declNames(decl) {
				if id.IsExported() && !named[id.Name] {
					problems = append(problems, f.Name.Name+"."+id.Name+": no program or example names it")
				}
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// declNames are the package-level names a declaration declares: a
// function's, but not a method's, and each type's, constant's and
// variable's.
func declNames(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, sp.Name)
			case *ast.ValueSpec:
				ids = append(ids, sp.Names...)
			}
		}
	}
	return ids
}

// knobProblems type-checks the tree in fsys like exportProblems and reports
// each knob no program sets that allow does not name, and each entry of
// allow that has no reason or does not name an unset knob. A knob is an
// exported, untagged field in an exported struct type under internal/ whose
// name ends in Config or Spec, of basic underlying type, or of func or
// interface type in a Config. A program sets it
// with a keyed composite literal, or with an assignment, & or ++/-- outside
// the declaring package: an assignment inside it fills a default.
func knobProblems(fsys fs.FS, module string, allow map[string]string) ([]string, error) {
	tr, err := loadTree(fsys, module)
	if err != nil {
		return nil, err
	}
	set := map[types.Object]bool{}
	for dir, dirFiles := range tr.files {
		// setOutside marks the field e selects when the package of dir
		// does not declare it.
		setOutside := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := tr.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && v.Pkg() != tr.pkgs[dir] {
					set[v] = true
				}
			}
		}
		for _, f := range dirFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						if v, ok := tr.info.Uses[key].(*types.Var); ok && v.IsField() {
							set[v] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setOutside(lhs)
					}
				case *ast.IncDecStmt:
					setOutside(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setOutside(n.X)
					}
				}
				return true
			})
		}
	}
	unset := map[string]bool{} // every knob the lint covers: is it unset?
	for dir, dirFiles := range tr.files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range dirFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Spec")) {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				config := strings.HasSuffix(ts.Name.Name, "Config")
				for _, field := range st.Fields.List {
					if field.Tag != nil {
						continue
					}
					for _, name := range field.Names {
						v := tr.info.Defs[name]
						switch u := v.Type().Underlying().(type) {
						case *types.Basic:
							if name.IsExported() && u.Kind() != types.Invalid {
								unset[dir+"."+ts.Name.Name+"."+name.Name] = !set[v]
							}
						case *types.Signature, *types.Interface:
							if name.IsExported() && config {
								unset[dir+"."+ts.Name.Name+"."+name.Name] = !set[v]
							}
						}
					}
				}
				return false
			})
		}
	}
	return lintProblems(unset, allow, "sets"), nil
}

// lintProblems reports each key flagged true that allow does not name, and
// each entry of allow that has no reason, names no key, or names a key a
// program verb (calls, sets) after all, sorted.
func lintProblems(flagged map[string]bool, allow map[string]string, verb string) []string {
	var problems []string
	for key, bad := range flagged {
		if _, listed := allow[key]; bad && !listed {
			problems = append(problems, key+": no program "+verb+" it")
		}
	}
	for key, reason := range allow {
		bad, declared := flagged[key]
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, key+": allowlisted without a reason")
		case !declared:
			problems = append(problems, key+": allowlisted but not declared")
		case !bad:
			problems = append(problems, key+": allowlisted but a program "+verb+" it")
		}
	}
	sort.Strings(problems)
	return problems
}

// tree is the type-checked non-test Go of a module: its files and packages
// by directory, and what each identifier in them denotes; and the root
// directory's _test.go files, type-checked apart into testInfo.
type tree struct {
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info

	rootTests []*ast.File
	testInfo  *types.Info
}

// loadTree parses and type-checks the non-test Go files of the tree in
// fsys, whose root has import path module, and the root's test files: an
// internal test package with the root's own files, an external (_test) one
// against the root package. A package outside the module is the standard
// library's, loaded from the toolchain's export data, so that a value whose
// type flows through a generic function (sync.OnceValues) keeps its type
// and its method calls count.
func loadTree(fsys fs.FS, module string) (*tree, error) {
	fset := token.NewFileSet()
	tr := &tree{
		files:    map[string][]*ast.File{},
		pkgs:     map[string]*types.Package{},
		info:     &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		testInfo: &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") && path.Dir(p) != ".":
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if strings.HasSuffix(p, "_test.go") {
			tr.rootTests = append(tr.rootTests, f)
		} else {
			tr.files[path.Dir(p)] = append(tr.files[path.Dir(p)], f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	std, err := stdImporter(fset, module, tr)
	if err != nil {
		return nil, err
	}
	var check func(dir string) *types.Package
	imp := importerFunc(func(p string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(p, module+"/")
		if p == module {
			dir, ok = ".", true
		}
		if ok && tr.files[dir] != nil {
			return check(dir), nil
		}
		return std.Import(p)
	})
	check = func(dir string) *types.Package {
		if tr.pkgs[dir] == nil {
			conf := types.Config{Importer: imp, Error: func(error) {}}
			tr.pkgs[dir], _ = conf.Check(path.Join(module, dir), fset, tr.files[dir], tr.info)
		}
		return tr.pkgs[dir]
	}
	for dir := range tr.files {
		check(dir)
	}
	tests := map[string][]*ast.File{} // by package name
	for _, f := range tr.rootTests {
		tests[f.Name.Name] = append(tests[f.Name.Name], f)
	}
	for name, files := range tests {
		p := module + "_test"
		if root := check("."); root != nil && name == root.Name() {
			p, files = module, append(slices.Clone(tr.files["."]), files...)
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		conf.Check(p, fset, files, tr.testInfo)
	}
	return tr, nil
}

// stdImporter loads each package outside the module that the tree imports
// from the toolchain's export data, found by one go list call for all of
// them rather than one a package.
func stdImporter(fset *token.FileSet, module string, tr *tree) (types.Importer, error) {
	var paths []string
	add := func(files []*ast.File) {
		for _, f := range files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err == nil && p != module && !strings.HasPrefix(p, module+"/") && !slices.Contains(paths, p) {
					paths = append(paths, p)
				}
			}
		}
	}
	for _, files := range tr.files {
		add(files)
	}
	add(tr.rootTests)
	out, err := exec.Command("go", append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, paths...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "=")
		exports[p] = file
	}
	return importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(exports[p])
	}), nil
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
