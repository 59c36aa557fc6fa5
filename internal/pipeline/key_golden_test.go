package pipeline

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cgra/internal/arch"
	"cgra/internal/sched"
)

// keyGolden pins the cache key of a fixed set of cells across processes and
// commits. The key names every artifact on disk, so a change to how a
// kernel, a composition or the options are serialized into it turns every
// cache directory cold on the next restart. Only a change that means to do
// that regenerates the file (go test ./internal/pipeline -run TestKeyGolden
// -update-keys), together with a reason in its description.
const keyGolden = "testdata/key_golden.txt"

var updateKeys = flag.Bool("update-keys", false, "rewrite "+keyGolden+" from the keys this commit computes")

// TestKeyGolden recomputes the key of the 12 library kernels and kgen
// kernels 0–31 under both backends on "9 PEs".
func TestKeyGolden(t *testing.T) {
	comp, err := arch.ByName("9 PEs")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, c := range append(libraryGoldenCases(t), generatedGoldenCases(32, false)...) {
		for _, backend := range []string{sched.BackendList, sched.BackendModulo} {
			o := Defaults()
			o.Backend = backend
			lines = append(lines, fmt.Sprintf("%s %s: %s", backend, c.name, Key(c.kernel, comp, o)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateKeys {
		if err := os.WriteFile(keyGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keyGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range strings.Split(got, "\n") {
			if i >= len(wl) || l != wl[i] {
				t.Fatalf("cache key moved at line %d:\n got %s\nwant %s\n(every cache directory would go cold; regenerate with -update-keys only on purpose)", i+1, l, wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("%s has %d lines, this commit computes %d", keyGolden, len(wl), len(lines)+1)
	}
}
