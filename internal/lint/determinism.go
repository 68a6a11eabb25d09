package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism forbids nondeterminism sources in the packages whose outputs
// the experiments (and their golden/fingerprint tests) depend on being a
// pure function of (inputs, seed):
//
//   - wall-clock reads (time.Now, time.Since);
//   - the global math/rand and math/rand/v2 streams, which are seeded
//     nondeterministically; constructing explicit seeded generators
//     (rand.New, rand.NewPCG, ...) stays legal because that is exactly what
//     internal/randx wraps;
//   - process-environment reads (os.Getenv and friends), which make
//     behavior depend on invisible machine state;
//   - ranging over a map while appending to a slice or writing output,
//     which leaks Go's randomized iteration order into results. Collecting
//     the map's keys themselves (for sorting) is exempt - that is the
//     canonical fix;
//   - ranging over a map while accumulating into a float or complex
//     (+=, -=, *=, /=): floating-point arithmetic is not associative, so
//     the result's low bits follow the iteration order.
const checkDeterminism = "determinism"

var Determinism = &Analyzer{
	Name: checkDeterminism,
	Doc:  "forbid wall clocks, global rand, env reads, and map-order-dependent output or float sums in deterministic packages",
	Run:  runDeterminism,
}

// randConstructors are the math/rand[/v2] package-level functions that
// build explicitly seeded generators rather than touching the global
// stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func runDeterminism(p *Package, cfg *Config) []Diagnostic {
	if !matchPkg(p.Path, cfg.DeterministicPkgs) {
		return nil
	}
	var out []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     p.Fset.Position(n.Pos()),
			Check:   checkDeterminism,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn := pkgFunc(p.Info, n)
				if fn == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if fn.Name() == "Now" || fn.Name() == "Since" {
						report(n, "time.%s reads the wall clock in a deterministic package", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn.Name()] {
						report(n, "%s.%s uses the nondeterministically seeded global stream; thread a randx.RNG instead",
							fn.Pkg().Path(), fn.Name())
					}
				case "os":
					switch fn.Name() {
					case "Getenv", "LookupEnv", "Environ":
						report(n, "os.%s makes behavior depend on the process environment", fn.Name())
					}
				}
			case *ast.RangeStmt:
				out = append(out, checkMapRange(p, n)...)
			}
			return true
		})
	}
	return out
}

// checkMapRange flags appends, output writes and float accumulation
// inside a map-keyed range, whose iteration order is deliberately
// randomized by the runtime.
func checkMapRange(p *Package, rs *ast.RangeStmt) []Diagnostic {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok {
		keyObj = p.Info.Defs[id]
		if keyObj == nil {
			keyObj = p.Info.Uses[id]
		}
	}
	var out []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     p.Fset.Position(n.Pos()),
			Check:   checkDeterminism,
			Message: fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if t := p.Info.TypeOf(as.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
						report(as, "%s on a %s inside map iteration accumulates in random map order, and float rounding depends on the order; iterate sorted keys or a slice",
							as.Tok, t)
					}
				}
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				if !appendsOnlyKey(p, call, keyObj) {
					report(call, "append inside map iteration leaks random map order into the slice; iterate sorted keys (appending the key itself, for later sorting, is exempt)")
				}
				return true
			}
		}
		if fn := pkgFunc(p.Info, call.Fun); fn != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				report(call, "fmt.%s inside map iteration emits output in random map order; iterate sorted keys", fn.Name())
			}
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				switch sel.Sel.Name {
				case "Write", "WriteString", "WriteByte", "WriteRune":
					report(call, "%s inside map iteration emits output in random map order; iterate sorted keys", sel.Sel.Name)
				}
			}
		}
		return true
	})
	return out
}

// appendsOnlyKey reports whether every appended element is exactly the
// range statement's key variable - the collect-keys-then-sort idiom.
func appendsOnlyKey(p *Package, call *ast.CallExpr, keyObj types.Object) bool {
	if keyObj == nil || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return false
	}
	for _, a := range call.Args[1:] {
		id, ok := a.(*ast.Ident)
		if !ok || p.Info.Uses[id] != keyObj {
			return false
		}
	}
	return true
}
