package exec

import (
	"math/rand"
	"testing"
)

// TestLookupIsFirstMatch holds the decode index to its specification on
// random tables: Lookup returns exactly the row a first-match scan in
// declaration order would, including for overlapping rows, rows that fix
// scattered bits, and tables too small to need an index.
func TestLookupIsFirstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows := make([]Row, rng.Intn(40))
		for i := range rows {
			mask := uint32(0xfc000000) // a shared major field, as every real ISA has
			for k := rng.Intn(4); k > 0; k-- {
				mask |= uint32(1<<uint(1+rng.Intn(11))-1) << uint(rng.Intn(26))
			}
			if rng.Intn(8) == 0 {
				mask = rng.Uint32()
			}
			rows[i] = Row{Mask: mask, Match: rng.Uint32() & mask, Op: uint16(i)}
		}
		tab := NewTable(rows)
		for k := 0; k < 2000; k++ {
			w := rng.Uint32()
			if len(rows) > 0 && k%2 == 0 { // half the probes hit some row's pattern
				r := rows[rng.Intn(len(rows))]
				w = r.Match | w&^r.Mask
			}
			var want *Row
			for i := range rows {
				if w&rows[i].Mask == rows[i].Match {
					want = &rows[i]
					break
				}
			}
			got := tab.Lookup(w)
			if (got == nil) != (want == nil) || got != nil && got.Op != want.Op {
				t.Fatalf("trial %d: Lookup(%#08x) = %v, first-match scan = %v", trial, w, got, want)
			}
		}
	}
}
