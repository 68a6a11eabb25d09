// Package leakcheck fails a test binary whose goroutines outlive its
// tests. A package that starts goroutines runs its tests through Main:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix marks a goroutine as the module's: a frame, or the
// "created by" line, names a function of the module.
const modulePrefix = "github.com/hinpriv/dehin/"

// wait bounds how long Main lets the module's goroutines unwind after the
// tests (a stopped ticker loop, an accept loop on a closed listener).
const wait = 2 * time.Second

// Main runs the tests and exits with their status. If they passed but a
// module goroutine is still running after the wait, it prints the stacks
// of those goroutines to stdout and exits 1.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := settle(); len(leaked) > 0 {
			fmt.Printf("leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until no module goroutine but the caller is left, or the
// wait runs out, and returns the stacks of the ones still running.
func settle() []string {
	deadline := time.Now().Add(wait)
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// moduleGoroutines returns the stack of every module goroutine except the
// caller's, which runtime.Stack lists first.
func moduleGoroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, modulePrefix) {
			out = append(out, g)
		}
	}
	return out
}
