// Package hot exercises the hotpath analyzer: every escape the compiler's
// -m report places inside a //hin:hot function is a finding. Want
// comments mark the expected diagnostics, worded as the compiler words
// them; the unannotated and non-allocating functions must stay clean.
package hot

import "fmt"

// frame mimics pooled scratch: appends into its fields reuse memory.
type frame struct {
	dat []int
}

type item struct{ v int }

func sink(vs ...any) {}

// Describe formats with Sprintf, which boxes its argument.
//
//hin:hot
func Describe(n int) string {
	return fmt.Sprintf("n=%d", n) // want "n escapes to heap"
}

// Concat builds a string in a loop.
//
//hin:hot
func Concat(parts []string) string {
	var s string
	for _, p := range parts {
		s = s + p // want "s \+ p escapes to heap"
	}
	return s
}

// Capture stores a closure over the loop variable.
//
//hin:hot
func Capture(fns []func(), xs []int) {
	for i, x := range xs {
		fns[i] = func() { _ = x } // want "func literal escapes to heap"
	}
}

// Box stores a pointer in an interface: the interface holds the pointer
// itself, so nothing is allocated.
//
//hin:hot
func Box(f *frame) any {
	var out any = f
	return out
}

// BoxArg passes a value to a variadic ...any parameter that does not
// escape: the argument array stays on the stack.
//
//hin:hot
func BoxArg(it item) {
	sink(it)
}

// AppendLocal allocates a slice sized by its argument on every call.
//
//hin:hot
func AppendLocal(n int) int {
	out := make([]int, 0, n) // want "make\(\[\]int, 0, n\) escapes to heap"
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return len(out)
}

// AppendCaller appends into the caller's buffer: the approved idiom.
//
//hin:hot
func AppendCaller(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// AppendField appends into pooled scratch: the approved idiom.
//
//hin:hot
func (f *frame) AppendField(v int) {
	f.dat = append(f.dat, v)
}

// AppendDerived appends into a slice derived from scratch memory.
//
//hin:hot
func AppendDerived(f *frame) []int {
	out := f.dat[:0]
	out = append(out, 1)
	return out
}

// AllocAllowed is the suppressed case.
//
//hin:hot
func AllocAllowed(n int) []int {
	//hin:allow hotpath -- fixture: cold setup path, result escapes anyway
	return make([]int, n)
}

// edgeBuf mimics hin.EdgeBuf: a pooled adjacency decode cursor.
type edgeBuf struct {
	ids []int
}

// DecodePooled decodes into a pooled cursor: appends into the cursor's
// field and into locals rebound to it are the approved compact-backend
// idiom.
//
//hin:hot
func DecodePooled(buf *edgeBuf, dat []int) []int {
	ids := buf.ids[:0]
	for _, d := range dat {
		ids = append(ids, d)
	}
	buf.ids = ids
	return ids
}

// DecodeUnpooled allocates a fresh decode buffer per query: exactly the
// per-call allocation the compact backend's hot path must not make.
//
//hin:hot
func DecodeUnpooled(dat []int) int {
	dec := make([]int, 0, len(dat)) // want "make\(\[\]int, 0, len\(dat\)\) escapes to heap"
	for _, d := range dat {
		dec = append(dec, d)
	}
	return len(dec)
}

// newBuf is small enough to inline: its make runs inside each caller,
// and the compiler reports it there.
func newBuf(n int) []int {
	return make([]int, n)
}

// Inlined calls the allocating helper; the finding lands on the call.
//
//hin:hot
func Inlined(n int) int {
	return len(newBuf(n)) // want "make\(\[\]int, n\) escapes to heap \(in //hin:hot Inlined\)"
}

// ColdCaller inlines the same helper but is not annotated.
func ColdCaller(n int) int {
	return len(newBuf(n))
}

var keep *int

// Leak publishes a local's address, so the local moves to the heap.
//
//hin:hot
func Leak(v int) {
	x := v // want "moved to heap: x"
	keep = &x
}

// Unannotated is not checked: the hotpath analyzer is opt-in.
func Unannotated() string {
	return fmt.Sprintf("free %d", 1)
}
