package padpd

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose test, fuzz, benchmark, example and metric names and
// example paths are checked against the tree.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// docTestRef is a test, fuzz, benchmark or example function named in
	// prose, with an optional trailing * for a family (TestPoller*).
	docTestRef = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*\*?`)
	// docExampleDir is an example program's directory (./examples/hierarchy).
	docExampleDir = regexp.MustCompile(`\bexamples/[\w-]+`)
	// docMetricRef is a metric name; one ending in _ names a family
	// (padpd_energy_).
	docMetricRef = regexp.MustCompile(`\bpadpd_\w+`)

	goTestFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	goMetricLit = regexp.MustCompile(`"(padpd_\w+)`)

	// docCommandFlag is a repo command's name or a -flag; goFlagDef is a
	// flag a main.go defines.
	docCommandFlag = regexp.MustCompile(`\b(powerd|powercoord|powerctl|powerdump|experiments|turbostat)\b|(?:^|[\s\x60(\[])-([a-z][\w-]*)`)
	goFlagDef      = regexp.MustCompile(`\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)\("([^"]+)"`)
)

// Every test, fuzz, benchmark or example function, every padpd_ metric and
// every examples/ directory that README.md, DESIGN.md or EXPERIMENTS.md
// names exists in the tree: a function is declared in some _test.go file, a
// metric is a string literal in some Go file, a directory is a directory. A
// trailing * or _ makes the name a prefix, and FigureN stands for any
// figure number (TestFigureNShape). A -flag that follows one of the repo's
// command names on the same line is defined in that command's main.go
// (powerd -listen, powerdump -view).
func TestDocsNameWhatExists(t *testing.T) {
	var funcs, metrics []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range goTestFunc.FindAllSubmatch(src, -1) {
				funcs = append(funcs, string(m[1]))
			}
		}
		for _, m := range goMetricLit.FindAllSubmatch(src, -1) {
			metrics = append(metrics, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 || len(metrics) == 0 {
		t.Fatalf("found %d test functions and %d metrics in the tree", len(funcs), len(metrics))
	}
	flags := map[string]map[string]bool{} // by command, read on first mention
	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			cmd := ""
			for _, m := range docCommandFlag.FindAllStringSubmatch(line, -1) {
				if m[1] != "" || cmd == "" {
					cmd = m[1]
					continue
				}
				if flags[cmd] == nil {
					flags[cmd] = commandFlags(t, cmd)
				}
				if !flags[cmd][m[2]] {
					t.Errorf("%s:%d names %s -%s, which cmd/%s/main.go does not define", doc, n+1, cmd, m[2], cmd)
				}
			}
		}
		for _, ref := range uniqueMatches(docTestRef, text) {
			if !anyMatch(docNamePattern(ref, strings.HasSuffix(ref, "*")), funcs) {
				t.Errorf("%s names %s, which no _test.go file declares", doc, ref)
			}
		}
		for _, ref := range uniqueMatches(docExampleDir, text) {
			if fi, err := os.Stat(ref); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, ref)
			}
		}
		for _, ref := range uniqueMatches(docMetricRef, text) {
			if !anyMatch(docNamePattern(ref, strings.HasSuffix(ref, "_")), metrics) {
				t.Errorf("%s names metric %s, which no Go file registers", doc, ref)
			}
		}
	}
}

// commandFlags is the set of flags cmd/<cmd>/main.go defines.
func commandFlags(t *testing.T, cmd string) map[string]bool {
	src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range goFlagDef.FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
	}
	return defined
}

// docNamePattern is the pattern a name from the docs stands for: itself,
// FigureN as any figure number, and as a prefix when family is set.
func docNamePattern(ref string, family bool) *regexp.Regexp {
	quoted := regexp.QuoteMeta(strings.TrimSuffix(ref, "*"))
	quoted = strings.ReplaceAll(quoted, "FigureN", `Figure\d+`)
	if family {
		return regexp.MustCompile(`^` + quoted)
	}
	return regexp.MustCompile(`^` + quoted + `$`)
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

func uniqueMatches(re *regexp.Regexp, text []byte) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range re.FindAll(text, -1) {
		if s := string(m); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
