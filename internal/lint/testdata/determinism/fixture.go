// Package det exercises the determinism analyzer. Every want comment
// holds a regex the fixture test (internal/lint/lint_test.go) expects to
// match a diagnostic reported on that line; lines without one must stay
// clean.
package det

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// Timestamps reads wall clocks.
func Timestamps() time.Duration {
	start := time.Now()      // want "time\.Now reads the wall clock"
	return time.Since(start) // want "time\.Since reads the wall clock"
}

// Env branches on invisible machine state.
func Env() string {
	return os.Getenv("HOME") // want "os\.Getenv makes behavior depend"
}

// GlobalRand draws from the nondeterministically seeded global stream.
func GlobalRand() int {
	return rand.Int() // want "math/rand\.Int uses the nondeterministically seeded global stream"
}

// SeededRand builds an explicit generator: the legal pattern randx wraps.
func SeededRand() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

// Keys collects map keys for sorting - the canonical exemption.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Leak lets map iteration order reach the output slice.
func Leak(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want "append inside map iteration leaks random map order"
	}
	return out
}

// PrintLeak emits output in map iteration order.
func PrintLeak(m map[string]int, w io.Writer) {
	for k, v := range m {
		fmt.Fprintln(w, k, v) // want "fmt\.Fprintln inside map iteration emits output"
	}
}

// BuildLeak writes into a builder in map iteration order.
func BuildLeak(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want "WriteString inside map iteration emits output"
	}
	return b.String()
}

// SumLeak accumulates floats in map iteration order.
func SumLeak(m map[string]float64) (sum, prod float64) {
	prod = 1
	for _, v := range m {
		sum += v  // want "\+= on a float64 inside map iteration accumulates in random map order"
		prod *= v // want "\*= on a float64 inside map iteration"
	}
	return sum, prod
}

// CountKeys accumulates integers, which is exact in any order.
func CountKeys(m map[string]int) (n int) {
	for _, v := range m {
		n += v
	}
	return n
}

// Allowed is the suppressed case: the directive silences the finding.
func Allowed() time.Time {
	//hin:allow determinism -- fixture: reporting-only timestamp
	return time.Now()
}
