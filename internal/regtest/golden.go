package regtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// WordsHash is the sha256 of fn's code words.  An installed function's
// words hold addresses at its relocation sites (its own constant pool,
// runtime helpers it calls), so they depend on where the loader put it;
// maskRelocs zeroes those sites first, leaving what the front end and the
// encoders chose.
func WordsHash(fn *core.Func, maskRelocs bool) string {
	words := fn.Words
	if maskRelocs {
		words = append([]uint32(nil), words...)
		for _, r := range fn.Relocs {
			for _, s := range r.Sites {
				words[s] = 0
			}
		}
	}
	h := sha256.New()
	var b [4]byte
	for _, w := range words {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Golden holds got — "key<TAB>value" lines — to the file at path, naming
// every key whose value differs, is missing or is new.  With update it
// rewrites the file from got instead; a golden file is captured at the
// commit whose behaviour is the specification, never to make a test pass.
func Golden(t testing.TB, path string, got []string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		k, v, _ := strings.Cut(line, "\t")
		want[k] = v
	}
	for _, line := range got {
		k, v, _ := strings.Cut(line, "\t")
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: %s is not in the golden file (got %s)", path, k, v)
		case w != v:
			t.Errorf("%s: %s\n got  %s\n want %s", path, k, v, w)
		}
		delete(want, k)
	}
	missing := make([]string, 0, len(want))
	for k := range want {
		missing = append(missing, k)
	}
	sort.Strings(missing)
	for _, k := range missing {
		t.Errorf("%s: %s is in the golden file but was not produced", path, k)
	}
}
