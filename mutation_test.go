package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutationLeaks is the proof that the runtime lifecycle checks have
// teeth. Each case plants one leak in a copy of a source file: a snapshot
// reference, a file pin, an attack-admission slot or a goroutine. It then
// runs the named test on the package with the copy overlaid
// (go test -overlay), and requires that test to fail with a message that
// names what leaked. The serve tests check that the server is idle after
// every request and that every retired file closes; internal/leakcheck
// fails a test binary whose goroutines outlive its tests.
func TestMutationLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("each case builds and runs a mutated test binary; skipped with -short")
	}
	for _, c := range []struct {
		name     string
		file     string // module-relative source file to mutate
		fn       string // the declaration line's prefix of the function to edit
		old, new string // replaced exactly once inside that function
		pkg, run string // the package and the test that must fail
		want     string // a fragment of the failure message
	}{
		{"risk-snapshot-ref", "internal/serve/api.go", "func (s *Server) handleRisk(",
			"\tdefer s.release(sn)\n", "",
			"internal/serve", "TestEndpointsAgainstLibrary", "epoch 1 holds 2 references at idle, want 1"},
		{"dehin-snapshot-ref", "internal/serve/api.go", "func (s *Server) handleDehin(",
			"\tdefer s.release(sn)\n", "",
			"internal/serve", "FuzzServeDehin", "epoch 1 holds 2 references at idle, want 1"},
		{"reload-snapshot-ref", "internal/serve/api.go", "func (s *Server) handleReload(",
			"\tdefer s.release(sn)\n", "",
			"internal/serve", "TestReloadSwapsEpochAndRetiresFile", "epoch 2 holds 2 references at idle, want 1"},
		{"file-pin", "internal/serve/server.go", "func (s *Server) release(",
			"\t\tsn.file.Unpin()\n", "",
			"internal/serve", "TestReloadSwapsEpochAndRetiresFile", "3 retired snapshot files failed to close"},
		{"dehin-admission-slot", "internal/serve/api.go", "func (s *Server) handleDehin(",
			"\tdefer release()\n", "\t_ = release\n",
			"internal/serve", "FuzzServeDehin", "1 attack slots of"},
		{"admission-release", "internal/serve/api.go", "func (s *Server) admitAttack(",
			"\t\t<-s.attackSlots\n", "",
			"internal/serve", "FuzzServeDehin", "1 attack slots of"},
		{"runtime-poller", "internal/obs/runtime.go", "func (c *RuntimeCollector) Stop(",
			"\tclose(c.stop)\n\t<-c.done\n", "",
			"internal/obs", "TestRuntimeStartStop", "obs.StartRuntime.func1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(filepath.FromSlash(c.file))
			if err != nil {
				t.Fatal(err)
			}
			mutant := replaceInFunc(t, string(src), c.fn, c.old, c.new)
			dir := t.TempDir()
			mutPath := filepath.Join(dir, filepath.Base(c.file))
			if err := os.WriteFile(mutPath, []byte(mutant), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(filepath.FromSlash(c.file))
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutPath}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command("go", "test", "-count=1", "-timeout", "60s",
				"-overlay", overlayPath, "-run", "^"+c.run+"$", "./"+c.pkg).CombinedOutput()
			if err == nil {
				t.Fatalf("%s still passes with the leak planted:\n%s", c.run, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%s failed without naming the leak (want %q):\n%s", c.run, c.want, out)
			}
		})
	}
}

// replaceInFunc replaces old with new in the body of the function whose
// declaration starts with fn, asserting both are there exactly once: a
// mutation that silently applies nowhere would make the test vacuous.
func replaceInFunc(t *testing.T, src, fn, old, new string) string {
	t.Helper()
	start := strings.Index(src, "\n"+fn)
	if start < 0 || strings.Count(src, "\n"+fn) != 1 {
		t.Fatalf("mutation anchor %q not found once; the source moved under the test", fn)
	}
	end := start + strings.Index(src[start:], "\n}\n")
	if n := strings.Count(src[start:end], old); n != 1 {
		t.Fatalf("mutation target %q found %d times in %s; the source moved under the test", old, n, fn)
	}
	return src[:start] + strings.Replace(src[start:end], old, new, 1) + src[end:]
}
