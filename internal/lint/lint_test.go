package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader serves every test: the source importer type-checks each
// dependency once per process, so fixture loads after the first are cheap.
var (
	loaderOnce sync.Once
	loader     *Loader
)

func testLoader() *Loader {
	loaderOnce.Do(func() { loader = NewLoader() })
	return loader
}

// wantRe extracts expectations from fixture sources: every occurrence of
// the marker `want "regex"` on a line expects one diagnostic there whose
// "[check] message" rendering matches the regex.
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

type lineKey struct {
	file string
	line int
}

// parseWants scans the fixture directory's Go sources for want markers.
func parseWants(t *testing.T, dir string) map[lineKey][]*regexp.Regexp {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, path := range matches {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, line, m[1], err)
				}
				wants[lineKey{path, line}] = append(wants[lineKey{path, line}], re)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture lints one testdata package and checks its diagnostics against
// the want markers: every diagnostic needs a matching want on its line, and
// every want needs a diagnostic.
func runFixture(t *testing.T, name string, cfg *Config, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	p, err := testLoader().LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	diags := p.Lint(cfg, analyzers)
	wants := parseWants(t, dir)

	byLine := make(map[lineKey][]Diagnostic)
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		byLine[k] = append(byLine[k], d)
	}
	for k, res := range wants {
		got := byLine[k]
		for _, re := range res {
			matched := false
			for i, d := range got {
				if re.MatchString(fmt.Sprintf("[%s] %s", d.Check, d.Message)) {
					got = append(got[:i], got[i+1:]...)
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
		byLine[k] = got
	}
	for _, rest := range byLine {
		for _, d := range rest {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	cfg := &Config{DeterministicPkgs: []string{"fixture/determinism"}}
	runFixture(t, "determinism", cfg, Determinism)
}

func TestNilSafeFixture(t *testing.T) {
	cfg := &Config{NilSafePkgs: []string{"fixture/nilsafe"}}
	runFixture(t, "nilsafe", cfg, NilSafe)
}

func TestHotPathFixture(t *testing.T) {
	// hotpath is opt-in via //hin:hot, so no package scoping is needed.
	runFixture(t, "hotpath", &Config{}, HotPath)
}

func TestLogDisciplineFixture(t *testing.T) {
	// The fixture path is not log-exempt, so the check applies.
	runFixture(t, "logdiscipline", &Config{}, LogDiscipline)
}

func TestShardSafetyFixture(t *testing.T) {
	// shardsafety keys on the par call sites and go statements themselves;
	// no package scoping involved.
	runFixture(t, "shardsafety", &Config{}, ShardSafety)
}

func TestErrDropFixture(t *testing.T) {
	cfg := &Config{ErrDropExempt: []string{"os:File.Close", "io:Closer.Close"}}
	runFixture(t, "errdrop", cfg, ErrDrop)
}

func TestDirectiveFixture(t *testing.T) {
	// Malformed directives surface regardless of analyzer set; Determinism
	// runs too, proving a malformed //hin:allow does not suppress.
	cfg := &Config{DeterministicPkgs: []string{"fixture/directive"}}
	runFixture(t, "directive", cfg, Determinism)
}

// TestScopedOut proves package scoping: the same fixtures produce zero
// findings when their import paths are not in the config's scope.
func TestScopedOut(t *testing.T) {
	for _, name := range []string{"determinism", "nilsafe"} {
		p, err := testLoader().LoadDir(filepath.Join("testdata", name), "fixture/"+name)
		if err != nil {
			t.Fatal(err)
		}
		if diags := p.Lint(&Config{}, []*Analyzer{Determinism, NilSafe}); len(diags) != 0 {
			t.Errorf("%s: zero Config should scope the checks out, got %v", name, diags)
		}
	}
}

// moduleRoot walks up from the working directory to the go.mod, so the
// repo-wide tests run regardless of which package directory hosts them.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the smoke test `make lint` mirrors: the whole module
// must lint clean under the default config. A regression here means a
// change reintroduced nondeterminism, an unguarded obs method, hot-path
// allocation, or ad-hoc logging - fix it or add a reasoned //hin:allow.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	pkgs, err := testLoader().LoadPatterns(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs) {
		t.Errorf("%s", d)
	}
}

// BenchmarkHinlintSelf measures the analysis phase (loading excluded) of
// the full suite over the linter's own packages - the self-hosting case
// cmd/benchdump records into the committed snapshot so analyzer slowdowns
// show up in bench diffs.
func BenchmarkHinlintSelf(b *testing.B) {
	pkgs, err := NewLoader().LoadPatterns(moduleRoot(b), "./internal/lint", "./cmd/hinlint")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := Run(pkgs); len(diags) != 0 {
			b.Fatalf("unexpected findings: %v", diags)
		}
	}
}
