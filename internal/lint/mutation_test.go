package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests are the lint gate's proof of strength: they copy
// real packages, re-introduce the exact regressions the analyzers exist
// to stop — an out-of-shard write in risk's sweep, a Sprintf, a boxed
// value or a per-query slice in the DeHIN query core, and a float sum in
// map order in the NS09 baseline — and assert the default-config suite
// reports them with a file:line diagnostic. The serving layer's lifecycle
// leaks are mutation-tested at run time instead (mutation_test.go at the
// module root). The copies live under testdata (invisible to go
// list, inside the module so the source importer resolves their real
// imports) with import paths whose suffixes match the default specs.

// copyPackage copies the package's non-test Go sources into dstDir,
// passing each file through mutate (file base name, contents).
func copyPackage(t *testing.T, srcDir, dstDir string, mutate func(name string, src []byte) []byte) {
	t.Helper()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			src = mutate(name, src)
		}
		if err := os.WriteFile(filepath.Join(dstDir, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// lintMutant copies the package at pkgRel (module-relative), mutates it,
// and lints the copy exactly as `make lint` would: default config, full
// analyzer suite.
func lintMutant(t *testing.T, pkgRel, importPath string, mutate func(name string, src []byte) []byte) []Diagnostic {
	t.Helper()
	root := moduleRoot(t)
	tmp, err := os.MkdirTemp(filepath.Join(root, "internal", "lint", "testdata"), "mut-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(tmp) })
	copyPackage(t, filepath.Join(root, filepath.FromSlash(pkgRel)), tmp, mutate)
	p, err := testLoader().LoadDir(tmp, importPath)
	if err != nil {
		t.Fatalf("mutant %s failed to load: %v", importPath, err)
	}
	return p.Lint(DefaultConfig(), Analyzers())
}

// replaceOnce asserts the mutation actually applied — a silent no-op
// replacement would make the kill assertion vacuous.
func replaceOnce(t *testing.T, src []byte, old, new string) []byte {
	t.Helper()
	if bytes.Count(src, []byte(old)) == 0 {
		t.Fatalf("mutation anchor %q not found; the source moved under the test", old)
	}
	return bytes.Replace(src, []byte(old), []byte(new), 1)
}

// requireFinding asserts a diagnostic of the check, in the file, whose
// message contains want — with a real position, since the acceptance bar
// is a file:line the developer can jump to.
func requireFinding(t *testing.T, diags []Diagnostic, check, file, want string) {
	t.Helper()
	for _, d := range diags {
		if d.Check == check && filepath.Base(d.Pos.Filename) == file && strings.Contains(d.Message, want) {
			if d.Pos.Line <= 0 {
				t.Fatalf("finding has no line: %s", d)
			}
			return
		}
	}
	t.Fatalf("no [%s] finding in %s containing %q; got %v", check, file, want, diags)
}

// TestMutationControl proves the unmutated copies lint clean under the
// default config — the baseline that gives the kill tests their meaning.
func TestMutationControl(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies re-type-check the module; skipped with -short")
	}
	for _, c := range []struct{ pkgRel, importPath string }{
		{"internal/risk", "mut/internal/risk"},
		{"internal/dehin", "mut/internal/dehin"},
		{"internal/baseline", "mut/internal/baseline"},
	} {
		if diags := lintMutant(t, c.pkgRel, c.importPath, nil); len(diags) != 0 {
			t.Errorf("control copy of %s must lint clean, got %v", c.pkgRel, diags)
		}
	}
}

// TestMutationOutOfShardWrite injects a write at the exclusive bound
// into risk's NetworkSweep worker: the shardsafety analyzer must flag
// the out-of-shard index.
func TestMutationOutOfShardWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies re-type-check the module; skipped with -short")
	}
	diags := lintMutant(t, "internal/risk", "mut/internal/risk", func(name string, src []byte) []byte {
		if name != "sweep.go" {
			return src
		}
		return replaceOnce(t, src,
			"initShard(g, attrs, sig, lo, hi)\n",
			"initShard(g, attrs, sig, lo, hi)\n\t\tsig[hi] = 0\n")
	})
	requireFinding(t, diags, "shardsafety", "sweep.go", `writes captured "sig" outside its owned shard`)
}

// TestMutationHotPath injects one allocation per mutant into dehin's
// deanonymizeCore, the //hin:hot query core: the compiler's escape
// report must surface each as a hotpath finding in attack.go.
func TestMutationHotPath(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies re-type-check the module; skipped with -short")
	}
	const anchor = "\ts.stats.pruned += pruned\n"
	for _, c := range []struct {
		name, inject, decl, want string
	}{
		{"sprintf", "\thotSink = fmt.Sprintf(\"%d\", tv)\n", "\nvar hotSink string\n", "tv escapes to heap"},
		{"boxing", "\thotAny = a.cfg.MaxDistance\n", "\nvar hotAny any\n", "a.cfg.MaxDistance escapes to heap"},
		{"local-slice", "\ttmp := make([]hin.EntityID, len(dst)+1)\n\tdst = append(dst, tmp...)\n", "",
			"make([]hin.EntityID, len(dst) + 1) escapes to heap"},
	} {
		t.Run(c.name, func(t *testing.T) {
			diags := lintMutant(t, "internal/dehin", "mut/internal/dehin", func(name string, src []byte) []byte {
				if name != "attack.go" {
					return src
				}
				src = replaceOnce(t, src, anchor, c.inject+anchor)
				return append(src, c.decl...)
			})
			requireFinding(t, diags, "hotpath", "attack.go", c.want+" (in //hin:hot deanonymizeCore)")
		})
	}
}

// TestMutationMapOrderFloatSum injects a float sum over a map range into
// the NS09 baseline: the determinism check must flag the accumulation.
func TestMutationMapOrderFloatSum(t *testing.T) {
	if testing.Short() {
		t.Skip("package copies re-type-check the module; skipped with -short")
	}
	diags := lintMutant(t, "internal/baseline", "mut/internal/baseline", func(name string, src []byte) []byte {
		if name != "baseline.go" {
			return src
		}
		return append(src, `
func mapOrderSum(scores map[hin.EntityID]float64) (sum float64) {
	for _, s := range scores {
		sum += s
	}
	return sum
}
`...)
	})
	requireFinding(t, diags, "determinism", "baseline.go", "+= on a float64 inside map iteration")
}
