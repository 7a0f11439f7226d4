package store

import (
	"testing"

	"ldl/internal/term"
)

func ids(vals ...int64) []term.ID {
	out := make([]term.ID, len(vals))
	for i, v := range vals {
		out[i] = term.Intern(term.Int(v))
	}
	return out
}

// TestBlockColumnAccessors: ColumnAt exposes the live ID columns and
// AppendRows gathers selected rows, both consistent with the
// tuple-level view of the same relation.
func TestBlockColumnAccessors(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 5; i++ {
		r.MustInsert(tup(i, i*10))
	}
	col0, col1 := r.ColumnAt(0), r.ColumnAt(1)
	if len(col0) != 5 || len(col1) != 5 {
		t.Fatalf("column lengths = %d, %d, want 5", len(col0), len(col1))
	}
	for i := 0; i < 5; i++ {
		if term.InternedTerm(col0[i]) != r.TupleAt(i)[0] || term.InternedTerm(col1[i]) != r.TupleAt(i)[1] {
			t.Fatalf("row %d: columns disagree with TupleAt", i)
		}
	}
	got := r.AppendRows([]int32{4, 0, 2}, 1, nil)
	want := ids(40, 0, 20)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendRows = %v, want %v", got, want)
		}
	}
	// Appends to the destination rather than replacing it.
	got = r.AppendRows([]int32{1}, 0, got)
	if len(got) != 4 || got[3] != ids(1)[0] {
		t.Fatalf("AppendRows did not append: %v", got)
	}
}

// TestBlockIDInsertAndLookup: the ID-level insert/lookup APIs share
// one dedup set with the term-level ones — a row inserted through
// either path is a duplicate through the other, and mixed-path
// lookups agree.
func TestBlockIDInsertAndLookup(t *testing.T) {
	r := NewRelation("e", 2)
	r.MustInsert(tup(1, 2))
	if added, err := r.InsertIDs(ids(1, 2)); err != nil || added {
		t.Fatalf("InsertIDs of term-inserted row = (%v, %v), want duplicate", added, err)
	}
	if added, err := r.InsertIDs(ids(3, 4)); err != nil || !added {
		t.Fatalf("InsertIDs of fresh row = (%v, %v)", added, err)
	}
	if added, _ := r.Insert(tup(3, 4)); added {
		t.Error("term Insert of ID-inserted row was not a duplicate")
	}
	if !r.ContainsIDs(ids(3, 4)) || r.ContainsIDs(ids(3, 5)) {
		t.Error("ContainsIDs disagrees with contents")
	}
	if !r.Contains(tup(3, 4)) {
		t.Error("term Contains misses ID-inserted row")
	}
	// The materialized tuple of an ID-inserted row is the canonical
	// interned term, usable like any other.
	if got := r.TupleAt(1).String(); got != "(3, 4)" {
		t.Errorf("TupleAt(1) = %s", got)
	}
}

// TestBlockAppendMatchesID: ID-probe lookups return exactly the rows
// the term-level index returns, across inserts from both paths.
func TestBlockAppendMatchesID(t *testing.T) {
	r := NewRelation("e", 2)
	r.MustInsert(tup(1, 2))
	r.MustInsert(tup(1, 3))
	if _, err := r.InsertIDs(ids(1, 4)); err != nil {
		t.Fatal(err)
	}
	r.MustInsert(tup(2, 2))

	probe := []term.ID{ids(1)[0], 0}
	got := r.AppendMatchesID(0b01, probe, nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("matches on col0=1: %v, want [0 1 2]", got)
	}
	// Agreement with the term-level index on the same probe.
	tm := r.AppendMatches(0b01, Tuple{term.Int(1), nil}, nil)
	if len(tm) != len(got) {
		t.Fatalf("term index found %v, ID index %v", tm, got)
	}
	// Both columns masked: exact-row probe.
	got = r.AppendMatchesID(0b11, ids(1, 3), nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("exact probe: %v, want [1]", got)
	}
	// No match, and an ID that was interned but never inserted.
	if got = r.AppendMatchesID(0b11, ids(9, 9), got[:0]); len(got) != 0 {
		t.Fatalf("probe (9,9) matched %v", got)
	}
}

// TestBlockInsertRows: columnar bulk insert dedups row-by-row against
// existing contents and itself, fires onNew in insertion order, and
// stores copies, never the caller's column scratch.
func TestBlockInsertRows(t *testing.T) {
	r := NewRelation("p", 2)
	r.MustInsert(tup(5, 5))
	cols := [][]term.ID{
		{ids(1)[0], ids(5)[0], ids(1)[0], ids(2)[0]},
		{ids(1)[0], ids(5)[0], ids(1)[0], ids(2)[0]},
	}
	var seen []int
	added, err := r.InsertRows(cols, 4, func(idx int) error {
		seen = append(seen, idx)
		return nil
	})
	if err != nil || added != 2 {
		t.Fatalf("InsertRows = (%d, %v), want 2 new rows", added, err)
	}
	// (5,5) pre-existing, duplicate (1,1) within the batch: new rows
	// are (1,1) at index 1 and (2,2) at index 2.
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("onNew indexes = %v, want [1 2]", seen)
	}
	if r.Len() != 3 || !r.Contains(tup(2, 2)) {
		t.Fatalf("relation contents wrong: len=%d", r.Len())
	}
	// Callers reuse their column scratch for the next block, so stored
	// rows must not alias it.
	cols[0][3], cols[1][3] = ids(9)[0], ids(9)[0]
	if !r.Contains(tup(2, 2)) || r.Contains(tup(9, 9)) {
		t.Error("stored row aliases the caller's column scratch")
	}
}
