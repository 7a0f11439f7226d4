package store

// Block (vectorized) access paths. The relation already stores its
// interned term IDs column-major (one dense []term.ID per column), so
// a block-at-a-time executor can read whole columns, gather candidate
// rows, probe indexes, and insert deduplicated rows while staying in
// ID space — terms are only materialized when a genuinely new tuple
// enters the relation. Everything here obeys the package concurrency
// contract: the read-side accessors (ColumnAt, IDAt, AppendRows,
// AppendMatchesID, ContainsIDs) are safe under concurrent readers,
// the insert-side ones (InsertIDs, InsertRows) are writer APIs.

import (
	"fmt"

	"ldl/internal/term"
)

// ColumnAt returns column c as a borrowed slice of interned term IDs,
// row-indexed: ColumnAt(c)[i] is the ID of TupleAt(i)[c]. The slice
// shares its backing array with the live relation — callers must not
// mutate it, and must capture the length they need before inserting
// into the same relation (append may extend the array in place;
// existing elements never move). Under ldldebug the capacity is
// clamped so append-through or past-snapshot access panics.
func (r *Relation) ColumnAt(c int) []term.ID { return debugBorrowIDs(r.allColView(c)) }

// IDAt returns the interned ID of TupleAt(i)[c], read from the live
// relation. Unlike ColumnAt it builds no combined view over a
// parts-backed relation, so it suits a reader that touches few rows of
// a relation it is also appending to.
func (r *Relation) IDAt(c, i int) term.ID { return r.idAt(c, i) }

// AppendRows gathers column c of the given row indexes into dst and
// returns the extended slice — the block executor's candidate-gather
// primitive, pairing with AppendMatchesID the way TupleAt pairs with
// AppendMatches but without per-row Tuple copies.
func (r *Relation) AppendRows(rows []int32, c int, dst []term.ID) []term.ID {
	col := r.allColView(c)
	for _, j := range rows {
		dst = append(dst, col[j])
	}
	return dst
}

// idRowHash folds a full ID row into the same row hash insert computes
// from terms: IDHash returns the structural hash TryIntern recorded,
// so ID-space and term-space probes land in the same dedup clusters.
func idRowHash(ids []term.ID) uint64 {
	h := hashSeed
	for _, id := range ids {
		h = combineHash(h, term.IDHash(id))
	}
	return h
}

// IDRowHash exposes the row-hash fold to the segment tier, which must
// recompute part hashes from re-interned IDs at open with exactly the
// values insert would have produced.
func IDRowHash(ids []term.ID) uint64 { return idRowHash(ids) }

// maskedIDHash hashes the projection of an ID row onto cols — the
// ID-space twin of maskedHash.
func maskedIDHash(ids []term.ID, cols uint32) uint64 {
	h := hashSeed
	for i, id := range ids {
		if cols&(1<<uint(i)) != 0 {
			h = combineHash(h, term.IDHash(id))
		}
	}
	return h
}

// AppendMatchesID is AppendMatches with an interned-ID probe row:
// candidate verification is a per-column integer compare instead of a
// structural term.Equal, and the probe needs no term materialization.
// cols must be non-zero and every masked probe position must hold a
// non-zero ID. The returned slice aliases dst and carries row indexes
// that stay valid forever (see AppendMatches for the borrow contract).
func (r *Relation) AppendMatchesID(cols uint32, probe []term.ID, dst []int32) []int32 {
	if r.Len() == 0 {
		return dst
	}
	return r.appendMatchesIDs(cols, probe, dst)
}

// ContainsIDs reports whether the relation holds the tuple given as a
// full interned-ID row.
func (r *Relation) ContainsIDs(ids []term.ID) bool {
	if len(ids) != r.Arity || r.Len() == 0 {
		return false
	}
	return r.findByIDs(idRowHash(ids), ids) >= 0
}

// InsertIDs adds the tuple given as a full interned-ID row, returning
// true if it was new. The term-level tuple is materialized from the
// intern table only when the row is genuinely new — duplicate
// derivations never touch terms at all. Writer-side API.
func (r *Relation) InsertIDs(ids []term.ID) (bool, error) {
	if len(ids) != r.Arity {
		return false, fmt.Errorf("store: %s: inserting arity %d ID row into arity %d relation", r.Name, len(ids), r.Arity)
	}
	debugCheckIDRow(r, ids)
	h := idRowHash(ids)
	if r.findByIDs(h, ids) >= 0 {
		return false, nil
	}
	t := make(Tuple, len(ids))
	for i, id := range ids {
		t[i] = term.InternedTerm(id)
	}
	r.appendRow(t, ids, h)
	return true, nil
}

// InsertRows bulk-inserts n rows given column-major (cols[c][i] is
// column c of row i; only the first Arity columns are read), skipping
// duplicates, and calls onNew with the relation row index of each row
// that was actually added — immediately after the row lands, so
// TupleAt(idx) is valid inside the callback. A non-nil error from
// onNew stops the batch; rows before the failure stay inserted and the
// error is returned alongside the added count. This is the block
// executor's head-emission primitive. Writer-side API.
func (r *Relation) InsertRows(cols [][]term.ID, n int, onNew func(idx int) error) (added int, err error) {
	row := r.scratch[:0]
	for i := 0; i < n; i++ {
		row = row[:0]
		for c := 0; c < r.Arity; c++ {
			row = append(row, cols[c][i])
		}
		debugCheckIDRow(r, row)
		h := idRowHash(row)
		if r.findByIDs(h, row) >= 0 {
			continue
		}
		t := make(Tuple, len(row))
		for c, id := range row {
			t[c] = term.InternedTerm(id)
		}
		// appendRow reuses r.scratch's backing array only through row,
		// which appendRow copies column-wise before returning.
		r.appendRow(t, row, h)
		added++
		if onNew != nil {
			if err := onNew(r.Len() - 1); err != nil {
				r.scratch = row[:0]
				return added, err
			}
		}
	}
	r.scratch = row[:0]
	return added, nil
}
