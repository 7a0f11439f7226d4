//go:build ldldebug

package store

// Build with -tags ldldebug to verify, on every insert, the invariant
// the engine's sharing discipline rests on: only ground, interned terms
// enter a relation, and interning is stable (re-interning an admitted
// term yields the same ID). Relations hand out borrowed views precisely
// because stored terms are immutable; this mode catches any violation
// at the door instead of as a corrupted set far downstream.

import (
	"fmt"

	"ldl/internal/term"
)

// debugBorrow clamps a borrowed slice's capacity to its length, so a
// caller of the cols==0 Lookup borrow that appends through the live
// backing array — or indexes past its snapshot length after inserting
// into the same relation mid-iteration — panics here instead of
// silently corrupting the relation.
func debugBorrow(ts []Tuple) []Tuple {
	return ts[:len(ts):len(ts)]
}

// debugBorrowIDs is debugBorrow for borrowed ID columns (ColumnAt).
func debugBorrowIDs(ids []term.ID) []term.ID {
	return ids[:len(ids):len(ids)]
}

// debugCheckProbe enforces the AppendMatches contract: a non-zero
// column mask, and a ground term in every masked probe position.
func debugCheckProbe(r *Relation, cols uint32, probe Tuple) {
	if cols == 0 {
		panic(fmt.Sprintf("store[ldldebug]: %s: AppendMatches with empty column mask", r.Name))
	}
	for i, x := range probe {
		if cols&(1<<uint(i)) == 0 {
			continue
		}
		if x == nil || !term.Ground(x) {
			panic(fmt.Sprintf("store[ldldebug]: %s: non-ground probe at masked column %d", r.Name, i))
		}
	}
}

// debugCheckIDRow verifies an ID-row insert: the row has one non-zero
// ID per column and every ID round-trips through the intern table.
func debugCheckIDRow(r *Relation, ids []term.ID) {
	if len(ids) != r.Arity {
		panic(fmt.Sprintf("store[ldldebug]: %s: ID row of length %d in arity %d relation", r.Name, len(ids), r.Arity))
	}
	for i, id := range ids {
		if id == 0 {
			panic(fmt.Sprintf("store[ldldebug]: %s: zero term ID at column %d", r.Name, i))
		}
		if term.IDHash(id) != term.HashTerm(term.InternedTerm(id)) {
			panic(fmt.Sprintf("store[ldldebug]: %s: interned hash mismatch for ID %d at column %d", r.Name, id, i))
		}
	}
}

func debugCheckInsert(r *Relation, t Tuple, ids []term.ID) {
	for i, x := range t {
		if !term.Ground(x) {
			panic(fmt.Sprintf("store[ldldebug]: %s: non-ground term %s at column %d", r.Name, x, i))
		}
		id2, _, ok := term.TryIntern(x)
		if !ok || id2 != ids[i] {
			panic(fmt.Sprintf("store[ldldebug]: %s: unstable intern for %s at column %d: %d vs %d",
				r.Name, x, i, ids[i], id2))
		}
		if !term.Equal(term.InternedTerm(id2), x) {
			panic(fmt.Sprintf("store[ldldebug]: %s: interned term mismatch for %s at column %d", r.Name, x, i))
		}
	}
}
