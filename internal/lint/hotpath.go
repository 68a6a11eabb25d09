package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// HotPath guards the zero-allocation query engine: every heap allocation
// the compiler's escape analysis reports inside a function annotated with
// //hin:hot in its doc comment (the DeHIN query path, the memo-table
// probes, the Hopcroft-Karp matcher) is a finding. The check does not
// guess from syntax; it builds the package with `go build -gcflags=-m`
// and keeps the "escapes to heap" and "moved to heap:" lines that fall
// inside an annotated declaration.
//
// The compiler reports an inlined callee's allocation at the outermost
// call site, so an allocation inlined into a hot function counts against
// that function, and an //hin:allow at the callee does not cover it. A
// callee that is not inlined is checked only if it is //hin:hot itself.
// -m does not report slice growth inside append or allocations inside
// callees that are not inlined; the steady-state allocation tests cover
// those (see LINT.md).
const checkHotPath = "hotpath"

var HotPath = &Analyzer{
	Name: checkHotPath,
	Doc:  "//hin:hot functions may not heap-allocate: reports each `go build -gcflags=-m` escape (escapes to heap, moved to heap) inside them",
	Run:  runHotPath,
}

// hotAnnotated reports whether the function's doc comment carries
// //hin:hot.
func hotAnnotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, directivePrefix+"hot")
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// hotDecl is one //hin:hot declaration as a line range of its file.
type hotDecl struct {
	name     string
	file     string // the path the package was loaded from
	from, to int
}

// escapeRe matches one -m line: file, line, column, compiler message.
var escapeRe = regexp.MustCompile(`^([^:]+\.go):(\d+):(\d+): (.*)$`)

func runHotPath(p *Package, _ *Config) []Diagnostic {
	var hot []hotDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hotAnnotated(fn) {
				continue
			}
			from, to := p.Fset.Position(fn.Pos()), p.Fset.Position(fn.End())
			hot = append(hot, hotDecl{fn.Name.Name, from.Filename, from.Line, to.Line})
		}
	}
	if len(hot) == 0 {
		return nil
	}

	cmd := exec.Command("go", "build", "-gcflags=-m", "-o", os.DevNull, ".")
	cmd.Dir = filepath.Dir(hot[0].file)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return []Diagnostic{{
			Pos:     token.Position{Filename: hot[0].file, Line: hot[0].from, Column: 1},
			Check:   checkHotPath,
			Message: fmt.Sprintf("go build -gcflags=-m failed, so no //hin:hot body in the package is checked: %v\n%s", err, bytes.TrimSpace(out)),
		}}
	}
	var diags []Diagnostic
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeRe.FindStringSubmatch(line)
		if m == nil || !strings.HasSuffix(m[4], "escapes to heap") && !strings.HasPrefix(m[4], "moved to heap:") {
			continue
		}
		ln, errLn := strconv.Atoi(m[2])
		col, errCol := strconv.Atoi(m[3])
		if errLn != nil || errCol != nil {
			continue
		}
		// Matched by base name: the build cache replays -m output with
		// paths relative to wherever the build that filled it ran, and
		// one package is one directory, so base names are unique.
		for _, h := range hot {
			if filepath.Base(h.file) == filepath.Base(m[1]) && ln >= h.from && ln <= h.to {
				diags = append(diags, Diagnostic{
					Pos:     token.Position{Filename: h.file, Line: ln, Column: col},
					Check:   checkHotPath,
					Message: fmt.Sprintf("%s (in //hin:hot %s)", m[4], h.name),
				})
				break
			}
		}
	}
	return diags
}
