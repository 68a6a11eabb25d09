package leakcheck

import (
	"strings"
	"testing"
)

// A goroutine the module started is listed while it runs and not after it
// returns; the calling goroutine is never listed.
func TestModuleGoroutines(t *testing.T) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	leaked := moduleGoroutines()
	if len(leaked) != 1 || !strings.Contains(leaked[0], "leakcheck.TestModuleGoroutines.func1") {
		t.Fatalf("want the one blocked goroutine, got %q", leaked)
	}
	close(stop)
	<-done
	if leaked := settle(); len(leaked) != 0 {
		t.Fatalf("goroutine still listed after it returned: %q", leaked)
	}
}
