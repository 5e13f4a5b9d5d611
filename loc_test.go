package repro

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineCeiling is the most non-test Go lines the tree may hold, counted as
// `make loc` counts its total.  A change that deletes lines lowers it to
// the new total; one that raises it says why in CHANGES.md.
const lineCeiling = 34532

// TestLineCeiling sums the newlines of every .go file under the root that
// is not a _test.go file, as `find . -name '*.go' ! -name '*_test.go' |
// xargs cat | wc -l` does, and fails above lineCeiling.
func TestLineCeiling(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		lines += bytes.Count(b, []byte{'\n'})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d non-test Go lines, ceiling %d", lines, lineCeiling)
	if lines > lineCeiling {
		t.Errorf("%d non-test Go lines, above the ceiling of %d", lines, lineCeiling)
	}
}
