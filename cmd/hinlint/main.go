// Command hinlint runs the repository's custom static-analysis suite
// (internal/lint) over the named packages and fails the build on any
// finding. It is the mechanical form of the invariants the attack
// pipeline's evaluation rests on: determinism of the result-producing
// packages, nil-safety of the instrumentation layer, the zero-allocation
// contract of the //hin:hot query path (checked against the compiler's
// escape analysis, go build -gcflags=-m), and obs.Logger log discipline.
// See LINT.md for the check catalogue and the //hin:allow / //hin:hot
// directives.
//
// Usage:
//
//	hinlint ./...                       # lint the whole module (make lint)
//	hinlint -format=json ./... > d.json # machine-readable diagnostics
//	hinlint -format=sarif ./... > d.sarif # SARIF 2.1.0 for code scanning
//	hinlint -checks                     # list the analyzers and exit
//
// -json remains as an alias for -format=json.
//
// Diagnostics go to stdout as "file:line:col: [check] message", sorted and
// with paths relative to the working directory, so output is stable for CI
// annotation tooling. Exit status is 0 when clean, 1 on findings, 2 on
// load or usage errors. Run from inside the module: package loading
// resolves imports through the go command, and hotpath builds each
// package holding a //hin:hot function with it.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/hinpriv/dehin/internal/lint"
	"github.com/hinpriv/dehin/internal/obs"
)

var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array (alias for -format=json)")
		format  = flag.String("format", "", "output format: text (default), json, or sarif")
		checks  = flag.Bool("checks", false, "list the analyzers and exit")
	)
	flag.Parse()
	if *format == "" {
		if *jsonOut {
			*format = "json"
		} else {
			*format = "text"
		}
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		logger.Error("unknown -format", "format", *format)
		os.Exit(2)
	}

	if *checks {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.NewLoader().LoadPatterns(".", patterns...)
	if err != nil {
		logger.Error(err.Error())
		os.Exit(2)
	}
	diags := lint.Run(pkgs)

	cwd, _ := os.Getwd() //hin:allow errdrop -- cwd only prettifies paths; empty on failure keeps them absolute
	switch *format {
	case "json":
		fmt.Print(renderJSON(diags, cwd))
	case "sarif":
		fmt.Print(renderSARIF(diags, cwd))
	default:
		for _, d := range diags {
			d.Pos.Filename = relPath(cwd, d.Pos.Filename)
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if *format == "text" {
			logger.Error("hinlint failed", "findings", len(diags))
		}
		os.Exit(1)
	}
}

// relPath shortens an absolute diagnostic path relative to the working
// directory when possible (keeps output readable and machine-stable).
func relPath(cwd, path string) string {
	if cwd == "" {
		return path
	}
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// renderJSON hand-rolls the diagnostic array in the internal/benchjson
// spirit: the format is small and fixed, so an explicit emitter (ordered
// fields, strconv.Quote escaping, trailing newline) beats reflection and
// documents the schema in code. Empty input renders "[]" so consumers can
// always json-decode the output.
func renderJSON(diags []lint.Diagnostic, cwd string) string {
	var b strings.Builder
	b.WriteString("[")
	for i, d := range diags {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  {\"file\":")
		b.WriteString(strconv.Quote(relPath(cwd, d.Pos.Filename)))
		b.WriteString(",\"line\":")
		b.WriteString(strconv.Itoa(d.Pos.Line))
		b.WriteString(",\"col\":")
		b.WriteString(strconv.Itoa(d.Pos.Column))
		b.WriteString(",\"check\":")
		b.WriteString(strconv.Quote(d.Check))
		b.WriteString(",\"message\":")
		b.WriteString(strconv.Quote(d.Message))
		b.WriteString("}")
	}
	if len(diags) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	return b.String()
}
