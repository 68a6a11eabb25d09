// Package lint implements hinlint, the repository's custom static-analysis
// suite. It mechanically enforces the invariants the attack pipeline's
// correctness and performance story rests on - invariants `go vet` has no
// notion of and that PRs 1-4 re-proved by hand on every change:
//
//   - determinism: the result-producing packages (generator, query engine,
//     risk metrics, experiment pipeline) may not read wall clocks, the
//     process environment, or the global math/rand stream, and may not let
//     map iteration order leak into output (see determinism.go).
//   - nilsafe: every exported pointer-receiver method of the
//     instrumentation layer (internal/obs, internal/obs/trace) must guard
//     against a nil receiver before touching receiver state, because the
//     whole layer is compiled out by passing nil handles (see nilsafe.go).
//   - hotpath: functions annotated //hin:hot - the DeHIN query path and the
//     Hopcroft-Karp matcher - may not heap-allocate: every escape the
//     compiler's `go build -gcflags=-m` report places inside one is a
//     finding (see hotpath.go).
//   - logdiscipline: ad-hoc stderr printing and the standard log package
//     are forbidden outside internal/obs; commands go through the nil-safe
//     obs.Logger (see logdiscipline.go).
//   - shardsafety: par.Run / par.Sweep worker closures and go literals
//     may write captured slices and maps only through indices they own
//     (see shardsafety.go).
//   - errdrop: a call's error result may not be silently discarded (see
//     errdrop.go).
//   - pairing: a configured acquire (a snapshot reference, an mmap pin,
//     an attack-admission slot) must reach its release on every path out
//     of the function, checked by forward dataflow over the function's
//     control-flow graph (see pairing.go, cfg.go, dataflow.go).
//   - goleak: every go statement outside the commands needs a join
//     reachable in the control-flow graph of the same function (see
//     goleak.go).
//
// The suite is written purely against the standard library (go/parser,
// go/ast, go/types with the source-mode go/importer) and the go command,
// whose compiler hotpath consults, so the module stays dependency-free.
// Findings are suppressed inline with
//
//	//hin:allow <check> -- <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory, so every suppression documents why the invariant legitimately
// does not apply. See LINT.md for the full check catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/hinpriv/dehin/internal/par"
)

// Diagnostic is one finding: a position, the check that fired, and a
// human-readable message. String renders the canonical
// "file:line:col: [check] message" form cmd/hinlint prints.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one hinlint check. Run inspects a type-checked package and
// returns raw findings; suppression directives are applied centrally by
// Package.Lint, so analyzers never need to know about //hin:allow.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and //hin:allow
	// directives.
	Name string
	// Doc is a one-line description (shown by `hinlint -checks`).
	Doc string
	// Run reports the analyzer's findings on one package.
	Run func(p *Package, cfg *Config) []Diagnostic
}

// Analyzers returns the full suite in its canonical order: the PR 5
// checks first (syntactic, plus the compiler-backed hotpath), then the
// flow-sensitive lifecycle checks built on the CFG/dataflow layer
// (cfg.go, dataflow.go).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism, NilSafe, HotPath, LogDiscipline,
		Pairing, ShardSafety, GoLeak, ErrDrop,
	}
}

// Config scopes the analyzers to package sets. Entries match an import
// path either exactly or as a path-wise suffix ("internal/tqq" matches
// "github.com/hinpriv/dehin/internal/tqq" but not ".../internal/tqq2" or
// ".../internal/tqq/sub"). The zero Config disables every package-scoped
// check; use DefaultConfig for the repository's invariants.
type Config struct {
	// DeterministicPkgs lists the packages whose outputs must be a pure
	// function of their inputs; the determinism check runs only there.
	DeterministicPkgs []string
	// NilSafePkgs lists the packages whose exported pointer-receiver
	// methods must begin with a nil-receiver guard.
	NilSafePkgs []string
	// LogExemptPkgs lists the packages allowed to bypass obs.Logger (the
	// logging layer itself).
	LogExemptPkgs []string
	// Pairs declares the acquire/release lifecycles the pairing analyzer
	// tracks (see pairing.go for the qualified-name format).
	Pairs []ResourcePair
	// MustCall pins release-endpoint implementations: each listed
	// function's body must still contain its inner release calls.
	MustCall []CallContract
	// GoExemptPkgs lists path segments whose packages skip the goleak
	// check ("cmd": binaries own process-lifetime goroutines).
	GoExemptPkgs []string
	// ErrDropExempt lists callees (qualified-name format, see pairing.go)
	// whose dropped errors are not findings: the best-effort cleanup
	// families where the surrounding code has already chosen which error
	// to surface.
	ErrDropExempt []string
}

// DefaultConfig returns the repository's invariant scopes: the nine
// result-producing packages are deterministic; the two instrumentation
// packages plus the server layer (whose handlers must degrade, not
// panic, on a nil or closed *Server) must be nil-safe; and only the
// instrumentation layer may write raw logs.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"internal/tqq", "internal/dehin", "internal/hin",
			"internal/risk", "internal/anonymize", "internal/baseline",
			"internal/bipartite", "internal/randx", "internal/experiments",
		},
		NilSafePkgs:   []string{"internal/obs", "internal/obs/trace", "internal/serve"},
		LogExemptPkgs: []string{"internal/obs", "internal/obs/trace"},
		// The serving layer's three lifecycles (SERVICE.md): snapshot
		// references, mmap pins, and attack-admission slots. Removing a
		// release on any handler path — or the Unpin inside release
		// itself — must turn the lint gate red.
		Pairs: []ResourcePair{
			{
				Name:           "snapshot reference",
				Acquire:        "internal/serve:Server.acquire",
				ResourceResult: 0,
				Releases: []string{
					"internal/serve:Server.release",
					"internal/serve:snapshot.unref",
				},
			},
			{
				Name:           "file pin",
				Acquire:        "internal/hin:CSRFile.Pin",
				ResourceResult: -1,
				Releases:       []string{"internal/hin:CSRFile.Unpin"},
			},
			{
				Name:           "attack admission slot",
				Acquire:        "internal/serve:Server.admitAttack",
				ResourceResult: 0,
				Releases:       []string{"()"},
			},
		},
		MustCall: []CallContract{
			{
				Func: "internal/serve:Server.release",
				Callees: []string{
					"internal/hin:CSRFile.Unpin",
					"internal/serve:snapshot.unref",
				},
			},
		},
		GoExemptPkgs: []string{"cmd"},
		// Best-effort cleanup: error-path f.Close()/os.Remove before
		// returning the original error, response-body closes, and process
		// teardown signals. Durable closes stay checked because they are
		// written `return f.Close()`, which is not a drop.
		ErrDropExempt: []string{
			"os:File.Close", "os:Remove",
			"io:Closer.Close", "io:ReadCloser.Close",
			"os:Process.Kill", "os:Process.Signal",
		},
	}
}

// matchPkg reports whether the import path is selected by any entry.
func matchPkg(path string, entries []string) bool {
	for _, e := range entries {
		if path == e || strings.HasSuffix(path, "/"+e) {
			return true
		}
	}
	return false
}

// Package is one parsed and type-checked package ready for analysis.
// Construct via a Loader (see load.go).
type Package struct {
	// Path is the package's import path (go list's ImportPath).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	allows    map[allowKey]bool
	malformed []Diagnostic // ill-formed //hin: directives, reported as check "directive"
}

type allowKey struct {
	file  string
	line  int
	check string
}

// directivePrefix introduces every hinlint source directive.
const directivePrefix = "//hin:"

// scanDirectives indexes //hin:allow directives and validates directive
// syntax and placement. It runs once at package construction.
func (p *Package) scanDirectives() {
	p.allows = make(map[allowKey]bool)
	for _, f := range p.Files {
		funcDocs := make(map[*ast.CommentGroup]bool)
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Doc != nil {
				funcDocs[fn.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, directivePrefix)
				verb, arg, _ := strings.Cut(rest, " ")
				switch verb {
				case "hot":
					// Valid bare or with a trailing "-- reason"; hotpath.go reads
					// it off function doc comments, so anywhere else it would
					// switch the check off without a word.
					if !funcDocs[cg] {
						p.malformed = append(p.malformed, Diagnostic{
							Pos:     pos,
							Check:   "directive",
							Message: "//hin:hot outside a function's doc comment annotates nothing",
						})
					}
				case "allow":
					check, reason, found := strings.Cut(arg, "--")
					check = strings.TrimSpace(check)
					reason = strings.TrimSpace(reason)
					if check == "" || !found || reason == "" {
						p.malformed = append(p.malformed, Diagnostic{
							Pos:   pos,
							Check: "directive",
							Message: fmt.Sprintf("malformed %q: want //hin:allow <check> -- <reason>",
								text),
						})
						continue
					}
					if !knownCheck(check) {
						p.malformed = append(p.malformed, Diagnostic{
							Pos:     pos,
							Check:   "directive",
							Message: fmt.Sprintf("//hin:allow names unknown check %q", check),
						})
						continue
					}
					p.allows[allowKey{pos.Filename, pos.Line, check}] = true
				default:
					p.malformed = append(p.malformed, Diagnostic{
						Pos:     pos,
						Check:   "directive",
						Message: fmt.Sprintf("unknown directive %q (known: //hin:allow, //hin:hot)", directivePrefix+verb),
					})
				}
			}
		}
	}
}

func knownCheck(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// suppressed reports whether an //hin:allow for the check sits on the
// diagnostic's line or the line directly above it.
func (p *Package) suppressed(d Diagnostic) bool {
	return p.allows[allowKey{d.Pos.Filename, d.Pos.Line, d.Check}] ||
		p.allows[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Check}]
}

// Lint runs the analyzers over the package, drops suppressed findings, and
// returns the rest (plus any malformed-directive findings) sorted.
func (p *Package) Lint(cfg *Config, analyzers []*Analyzer) []Diagnostic {
	out := append([]Diagnostic(nil), p.malformed...)
	for _, a := range analyzers {
		for _, d := range a.Run(p, cfg) {
			if !p.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	Sort(out)
	return out
}

// Run lints every package with the full suite under the default config -
// the exact gate `make verify` and CI enforce.
func Run(pkgs []*Package) []Diagnostic {
	return RunConfigured(DefaultConfig(), Analyzers(), pkgs)
}

// RunConfigured lints every package with an explicit config and analyzer
// set, concatenating the per-package findings in deterministic order.
// Packages are analyzed on parallel workers — Lint only reads the
// package and the config, and each worker writes its own positional
// slot — then merged and sorted, so the output is byte-identical to the
// serial run.
func RunConfigured(cfg *Config, analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	results := make([][]Diagnostic, len(pkgs))
	par.Run(0, len(pkgs), func(_, i int) {
		results[i] = pkgs[i].Lint(cfg, analyzers)
	})
	var out []Diagnostic
	for _, r := range results {
		out = append(out, r...)
	}
	Sort(out)
	return out
}

// Sort orders diagnostics by (file, line, column, check, message), the
// stable order all hinlint output uses.
func Sort(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// pkgFunc returns the package-level function (not method) a selector or
// identifier resolves to, or nil.
func pkgFunc(info *types.Info, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil // method, not a package-level function
	}
	return fn
}

// isPkgFunc reports whether the call's callee is the named package-level
// function of the given package path.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := pkgFunc(info, call.Fun)
	if fn == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
