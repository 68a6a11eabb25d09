// Package dirfix exercises directive validation: ill-formed //hin:
// comments are findings themselves (check "directive") and never suppress
// anything. The want expectations sit inside the malformed directives -
// the harness scans raw source lines, not comment structure.
package dirfix

import "time"

// Missing lacks the mandatory "-- reason", so the directive is malformed
// and the finding underneath survives.
func Missing() time.Time {
	//hin:allow determinism want "malformed"
	return time.Now() // want "time\.Now reads the wall clock"
}

// Unknown names a check that does not exist.
func Unknown() int {
	//hin:allow nosuchcheck -- reason here, want "unknown check"
	return 1
}

// Verb uses a directive hinlint has never heard of.
func Verb() int {
	//hin:frobnicate want "unknown directive"
	return 2
}

//hin:hot want "outside a function's doc comment"

// Detached is cut off from the //hin:hot above by a blank line, so the
// annotation reaches no function.
func Detached() int {
	return 3
}

// InBody carries its //hin:hot inside the body.
func InBody() int {
	//hin:hot want "outside a function's doc comment"
	return 4
}

// OnType annotates a type, which the hotpath check never reads.
//
//hin:hot want "outside a function's doc comment"
type OnType struct{}
