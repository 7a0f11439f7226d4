// Package store implements the fact base: relations of ground tuples
// with set semantics, hash indexes on column subsets, and the database
// mapping predicate tags to relations.
//
// The data plane is string-free: every inserted term is interned
// (hash-consed) by internal/term, tuples are deduplicated through an
// open-addressed hash set keyed on combined interned-term hashes with
// ID-row equality on collision, and column indexes are open-addressed
// multimaps on masked column hashes. Tuple.Key/KeyOn survive for
// display and debugging only — no hot-path operation serializes terms.
//
// Concurrency contract: a Relation supports any number of concurrent
// readers (Contains, Lookup, Scan, AppendMatches, Tuples, TupleAt,
// Snapshot, Sorted, Distinct) — including the lazy index and
// distinct-count builds inside Lookup/Scan/Distinct, which publish
// atomically — but writers (Insert, InsertFrom, InsertIDs,
// BuildIndex) must be externally serialized and must not run
// concurrently with readers of the same relation. The parallel
// evaluator relies on exactly this: relations are frozen while worker
// goroutines read them and mutated only at single-threaded merge
// points.
package store

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ldl/internal/lang"
	"ldl/internal/term"
)

// Tuple is a row of ground terms.
type Tuple []term.Term

// Key returns the canonical string encoding of the tuple. It is for
// display and debugging only; storage and indexing key on interned-term
// hashes and never call it.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, x := range t {
		term.AppendKey(&b, x)
		b.WriteByte(',')
	}
	return b.String()
}

// KeyOn encodes only the columns whose bit is set in cols (debug only).
func (t Tuple) KeyOn(cols uint32) string {
	var b strings.Builder
	for i, x := range t {
		if cols&(1<<uint(i)) != 0 {
			term.AppendKey(&b, x)
			b.WriteByte(',')
		}
	}
	return b.String()
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, x := range t {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// hashSeed is the initial row-hash value (golden-ratio constant).
const hashSeed uint64 = 0x9e3779b97f4a7c15

// combineHash folds one column hash into a row hash; sequential
// re-mixing keeps it order-sensitive, so (a,b) and (b,a) differ.
func combineHash(h, col uint64) uint64 {
	h ^= col
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// maskedHash hashes the projection of t onto cols without interning —
// the probe-side path used by Contains and Lookup.
func maskedHash(t Tuple, cols uint32) uint64 {
	h := hashSeed
	for i, x := range t {
		if cols&(1<<uint(i)) != 0 {
			h = combineHash(h, term.HashTerm(x))
		}
	}
	return h
}

// colIndex is an open-addressed multimap from the masked-column hash of
// a tuple to its index. Duplicate keys are stored as separate slots;
// lookups probe the cluster until an empty slot. Entries are never
// deleted (relations only grow).
type colIndex struct {
	cols   uint32
	slots  []int32  // tuple index + 1; 0 = empty
	hashes []uint64 // masked hash per occupied slot
	mask   uint32
	n      int
}

func newColIndex(cols uint32, capacity int) *colIndex {
	size := tableSize(capacity)
	return &colIndex{
		cols:   cols,
		slots:  make([]int32, size),
		hashes: make([]uint64, size),
		mask:   uint32(size - 1),
	}
}

// tableSize picks the power-of-two table length for an expected element
// count, keeping load below ~2/3.
func tableSize(n int) int {
	if n < 8 {
		n = 8
	}
	return 1 << bits.Len(uint(n+n/2))
}

func (ci *colIndex) insert(h uint64, idx int) {
	if ci.n*3 >= len(ci.slots)*2 {
		ci.grow()
	}
	i := uint32(h) & ci.mask
	for ci.slots[i] != 0 {
		i = (i + 1) & ci.mask
	}
	ci.slots[i] = int32(idx) + 1
	ci.hashes[i] = h
	ci.n++
}

func (ci *colIndex) grow() {
	old, oldh := ci.slots, ci.hashes
	size := len(ci.slots) * 2
	ci.slots = make([]int32, size)
	ci.hashes = make([]uint64, size)
	ci.mask = uint32(size - 1)
	for i, v := range old {
		if v == 0 {
			continue
		}
		h := oldh[i]
		j := uint32(h) & ci.mask
		for ci.slots[j] != 0 {
			j = (j + 1) & ci.mask
		}
		ci.slots[j] = v
		ci.hashes[j] = h
	}
}

// lookup appends the indexes of every slot whose hash matches to dst.
// Candidates still need column-wise verification by the caller (hash
// collisions between distinct values share a slot cluster).
func (ci *colIndex) lookup(h uint64, dst []int32) []int32 {
	i := uint32(h) & ci.mask
	for ci.slots[i] != 0 {
		if ci.hashes[i] == h {
			dst = append(dst, ci.slots[i]-1)
		}
		i = (i + 1) & ci.mask
	}
	return dst
}

// Relation is a set of same-arity ground tuples with optional hash
// indexes on column subsets.
//
// Representation: an immutable shared prefix of Parts (rows flushed to
// segment files or frozen by Frozen — see part.go) followed by an owned
// in-memory tail. A relation with no parts is exactly the old flat
// layout and pays nothing for the split. Global row index i < partRows
// addresses the prefix; i - partRows addresses the tail arrays below.
type Relation struct {
	Name  string
	Arity int

	// The immutable shared prefix. parts/partOff/partRows are fixed for
	// the life of a Relation value: freezing produces a new Relation.
	parts    []*Part
	partOff  []int // partOff[k] = global index of parts[k]'s first row
	partRows int

	tuples []Tuple
	cols   []idColumn // interned IDs, column-major, one slice per column
	hashes []uint64   // full-row hash per tuple

	// Combined prefix+tail views, built lazily for parts-backed
	// relations (see part.go).
	allT atomic.Pointer[tupleViewCache]
	allC atomic.Pointer[colViewCache]

	// The dedup set: open-addressed, slot = tuple index + 1, keyed on
	// hashes[idx] with ID-row equality on collision.
	setSlots []int32
	setMask  uint32

	// indexes holds the column indexes behind an atomically published
	// immutable map so concurrent readers can lazily build missing
	// indexes without a read-path lock.
	indexes atomic.Pointer[map[uint32]*colIndex]
	buildMu sync.Mutex

	// distincts caches per-column distinct-value sets, built lazily on
	// the first Distinct(i) call (the optimizer's stats path hits it per
	// literal) and kept current incrementally by the insert path.
	// Published atomically under the same discipline as indexes: readers
	// may build missing columns concurrently; writers update the sets in
	// place, which is safe because writers are never concurrent with
	// readers.
	distincts atomic.Pointer[[]*distinctSet]

	scratch []term.ID // per-insert ID buffer, reused
}

// distinctSet is the cached distinct-value set of one column.
type distinctSet struct {
	seen map[term.ID]struct{}
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return NewRelationSized(name, arity, 0)
}

// NewRelationSized creates an empty relation pre-sized for an expected
// cardinality, avoiding rehash growth while a fixpoint fills it. The
// evaluator feeds it the optimizer's cardinality estimates.
func NewRelationSized(name string, arity, capacity int) *Relation {
	r := &Relation{Name: name, Arity: arity}
	size := tableSize(capacity)
	r.setSlots = make([]int32, size)
	r.setMask = uint32(size - 1)
	r.cols = make([]idColumn, arity)
	if capacity > 0 {
		r.tuples = make([]Tuple, 0, capacity)
		for c := range r.cols {
			r.cols[c] = make(idColumn, 0, capacity)
		}
		r.hashes = make([]uint64, 0, capacity)
	}
	empty := map[uint32]*colIndex{}
	r.indexes.Store(&empty)
	return r
}

// Len is the cardinality of the relation.
func (r *Relation) Len() int { return r.partRows + len(r.tuples) }

// Tuples exposes the stored tuples as a borrowed read-only view: the
// returned slice shares its backing array with the live relation.
// Callers must not mutate it, and must not hold it across an Insert if
// they need a stable length (append may extend in place — existing
// elements never move or change, so iterating a previously taken view
// is always safe). Use Snapshot for an independent copy. On a
// parts-backed relation the first call materializes the combined view
// (O(n)); block-executor paths that stay in ID space never trigger it.
func (r *Relation) Tuples() []Tuple { return r.allTuplesView() }

// Snapshot returns an independent copy of the tuple slice, decoupled
// from subsequent Inserts. The parallel evaluator snapshots relations
// it iterates while another goroutine may later extend them.
func (r *Relation) Snapshot() []Tuple {
	all := r.allTuplesView()
	out := make([]Tuple, len(all))
	copy(out, all)
	return out
}

// idColumn is one column of interned term IDs, row-indexed.
type idColumn = []term.ID

// rowEqual reports whether the interned-ID row of *tail-local* index
// idx equals ids.
func (r *Relation) rowEqual(idx int, ids []term.ID) bool {
	for c := range r.cols {
		if r.cols[c][idx] != ids[c] {
			return false
		}
	}
	return true
}

// findByIDs probes for an interned ID row — every part's dedup set
// (row blooms short-circuit cold parts), then the tail's — returning
// the global row index or -1.
func (r *Relation) findByIDs(h uint64, ids []term.ID) int {
	for k, p := range r.parts {
		if local := p.find(h, ids); local >= 0 {
			return r.partOff[k] + local
		}
	}
	i := uint32(h) & r.setMask
	for {
		v := r.setSlots[i]
		if v == 0 {
			return -1
		}
		idx := int(v - 1)
		if r.hashes[idx] == h && r.rowEqual(idx, ids) {
			return r.partRows + idx
		}
		i = (i + 1) & r.setMask
	}
}

func (r *Relation) setInsert(h uint64, idx int) {
	if (len(r.tuples))*3 >= len(r.setSlots)*2 {
		r.growSet()
	}
	i := uint32(h) & r.setMask
	for r.setSlots[i] != 0 {
		i = (i + 1) & r.setMask
	}
	r.setSlots[i] = int32(idx) + 1
}

func (r *Relation) growSet() {
	size := len(r.setSlots) * 2
	r.setSlots = make([]int32, size)
	r.setMask = uint32(size - 1)
	for idx := range r.tuples {
		h := r.hashes[idx]
		i := uint32(h) & r.setMask
		for r.setSlots[i] != 0 {
			i = (i + 1) & r.setMask
		}
		r.setSlots[i] = int32(idx) + 1
	}
}

// Insert adds a tuple, returning true if it was new. It rejects tuples
// of the wrong arity or containing variables. Every admitted term is
// interned, so stored tuples carry canonical, immutable ground terms.
// The relation retains t's backing array; callers must not mutate it
// afterwards.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.Arity {
		return false, fmt.Errorf("store: %s: inserting arity %d tuple into arity %d relation", r.Name, len(t), r.Arity)
	}
	r.scratch = r.scratch[:0]
	h := hashSeed
	for _, x := range t {
		id, th, ok := term.TryIntern(x)
		if !ok {
			return false, fmt.Errorf("store: %s: non-ground tuple %s", r.Name, t)
		}
		r.scratch = append(r.scratch, id)
		h = combineHash(h, th)
	}
	debugCheckInsert(r, t, r.scratch)
	if r.findByIDs(h, r.scratch) >= 0 {
		return false, nil
	}
	r.appendRow(t, r.scratch, h)
	return true, nil
}

// appendRow is the shared tail of every insert path: the row is known
// to be new, its IDs and full-row hash already computed. It appends the
// tuple and its column IDs, updates the dedup set, every published
// column index, and the distinct caches.
func (r *Relation) appendRow(t Tuple, ids []term.ID, h uint64) {
	idx := len(r.tuples)
	r.tuples = append(r.tuples, t)
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], ids[c])
	}
	r.hashes = append(r.hashes, h)
	r.setInsert(h, idx)
	for cols, ci := range *r.indexes.Load() {
		ci.insert(maskedIDHash(ids, cols), r.partRows+idx)
	}
	if v := r.allT.Load(); v != nil {
		v.rows = append(v.rows, t)
	}
	if v := r.allC.Load(); v != nil {
		for c := range v.cols {
			v.cols[c] = append(v.cols[c], ids[c])
		}
	}
	r.noteDistinct(ids)
}

// InsertFrom adds row i of src, reusing src's interned IDs and row
// hash instead of re-hashing — the merge fast path for the parallel
// evaluator's per-worker buffers. Both relations must share the arity.
func (r *Relation) InsertFrom(src *Relation, i int) (bool, error) {
	if src.Arity != r.Arity {
		return false, fmt.Errorf("store: %s: merging arity %d relation into arity %d relation", r.Name, src.Arity, r.Arity)
	}
	h := src.hashAt(i)
	r.scratch = r.scratch[:0]
	if ti := i - src.partRows; ti >= 0 {
		for c := range src.cols {
			r.scratch = append(r.scratch, src.cols[c][ti])
		}
	} else {
		p, local := src.partAt(i)
		for c := range p.cols {
			r.scratch = append(r.scratch, p.cols[c][local])
		}
	}
	if r.findByIDs(h, r.scratch) >= 0 {
		return false, nil
	}
	r.appendRow(src.tupleAt(i), r.scratch, h)
	return true, nil
}

// MustInsert inserts and panics on structural errors; for loaders over
// validated facts.
func (r *Relation) MustInsert(t Tuple) bool {
	ok, err := r.Insert(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Contains reports whether the relation holds the tuple. The probe is
// resolved to interned IDs without interning (TryLookupID): a term the
// intern table has never seen cannot equal any stored value, so such
// probes answer false without touching the relation at all.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.Arity || r.Len() == 0 {
		return false
	}
	var idbuf [16]term.ID
	ids := idbuf[:0]
	if len(t) > len(idbuf) {
		ids = make([]term.ID, 0, len(t))
	}
	h := hashSeed
	for _, x := range t {
		id, ok := term.TryLookupID(x)
		if !ok {
			return false
		}
		ids = append(ids, id)
		h = combineHash(h, term.IDHash(id))
	}
	return r.findByIDs(h, ids) >= 0
}

// BuildIndex creates (or refreshes) a hash index on the column set.
// Writer-side API: callers must hold the same external serialization
// they hold for Insert.
func (r *Relation) BuildIndex(cols uint32) {
	ci := r.buildColIndex(cols)
	old := *r.indexes.Load()
	next := make(map[uint32]*colIndex, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[cols] = ci
	r.indexes.Store(&next)
}

// buildColIndex indexes the owned tail (parts carry their own shared
// indexes); slot values are global row indexes.
func (r *Relation) buildColIndex(cols uint32) *colIndex {
	ci := newColIndex(cols, len(r.tuples))
	row := make([]term.ID, r.Arity)
	for i := range r.tuples {
		for c := range r.cols {
			row[c] = r.cols[c][i]
		}
		ci.insert(maskedIDHash(row, cols), r.partRows+i)
	}
	return ci
}

// HasIndex reports whether an index exists on the column set.
func (r *Relation) HasIndex(cols uint32) bool {
	_, ok := (*r.indexes.Load())[cols]
	return ok
}

// ensureIndex returns the index on cols, building and atomically
// publishing it on first use. Safe under concurrent readers: the build
// is serialized by buildMu and the map is replaced copy-on-write, so
// readers only ever observe fully built indexes.
func (r *Relation) ensureIndex(cols uint32) *colIndex {
	if ci, ok := (*r.indexes.Load())[cols]; ok {
		return ci
	}
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	if ci, ok := (*r.indexes.Load())[cols]; ok {
		return ci
	}
	ci := r.buildColIndex(cols)
	old := *r.indexes.Load()
	next := make(map[uint32]*colIndex, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[cols] = ci
	r.indexes.Store(&next)
	return ci
}

// Lookup returns the tuples whose projection on cols matches the
// corresponding values of probe (only probe positions with the bit set
// are consulted). It uses an index when available, building one on
// first use otherwise — modelling a database that adapts access paths.
//
// BORROW WARNING for cols == 0: the returned slice is the relation's
// live internal tuple slice, not a copy — that is what makes the
// full-scan path allocation-free. Callers that insert into the same
// relation while iterating (the sequential engine's direct mode does)
// must capture len() before the loop and never index past it: append
// may extend the backing array in place, but existing elements never
// move or change, so iterating the pre-insert prefix is always safe.
// The ldldebug build tag clamps the returned slice's capacity so any
// append-through or past-snapshot access panics at the point of
// violation. Use Snapshot for an independent copy, or Scan, which
// collects match indexes up front and is insert-during-yield safe.
func (r *Relation) Lookup(cols uint32, probe Tuple) []Tuple {
	if cols == 0 {
		return debugBorrow(r.allTuplesView())
	}
	if r.Len() == 0 {
		return nil
	}
	var idbuf [16]term.ID
	ids, ok := probeIDs(probe, cols, idbuf[:0])
	if !ok {
		return nil
	}
	var stack [16]int32
	idxs := r.appendMatchesIDs(cols, ids, stack[:0])
	if len(idxs) == 0 {
		return nil
	}
	out := make([]Tuple, 0, len(idxs))
	for _, j := range idxs {
		out = append(out, r.tupleAt(int(j)))
	}
	return out
}

// probeIDs resolves the masked positions of a term probe to interned
// IDs without interning (unmasked positions get the zero sentinel). ok
// is false when some masked term was never interned — it then cannot
// match any stored row.
func probeIDs(probe Tuple, cols uint32, dst []term.ID) ([]term.ID, bool) {
	for i, x := range probe {
		if cols&(1<<uint(i)) == 0 {
			dst = append(dst, 0)
			continue
		}
		id, ok := term.TryLookupID(x)
		if !ok {
			return nil, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// AppendMatches appends to dst the row indexes whose projection on
// cols matches probe, fully verified (not just hash-matched), and
// returns the extended slice. cols must be non-zero and every masked
// probe position must hold a ground term (the ldldebug build tag
// asserts both at the call site). Passing a reused buffer as dst keeps
// steady-state probes allocation-free — this is the compiled join
// kernels' probe primitive.
//
// Borrow lifetime: the returned slice aliases dst's backing array (the
// caller owns it; the relation keeps no reference), and the row
// indexes it holds are stable forever — relations only grow and rows
// never move — so a match set may be consumed across later inserts,
// including inserts into this same relation. The matches are collected
// before the caller sees any of them, so insert-while-consuming never
// observes a partially built result. What a reused buffer must NOT do
// is survive into a second AppendMatches call while the first result
// is still being read: the second call overwrites the shared backing
// array.
func (r *Relation) AppendMatches(cols uint32, probe Tuple, dst []int32) []int32 {
	debugCheckProbe(r, cols, probe)
	if r.Len() == 0 {
		return dst
	}
	var idbuf [16]term.ID
	ids, ok := probeIDs(probe, cols, idbuf[:0])
	if !ok {
		return dst
	}
	return r.appendMatchesIDs(cols, ids, dst)
}

// appendMatchesIDs is the shared probe core: every part's index (zone
// maps and blooms pruning cold parts first), then the tail's, with
// per-column ID verification compacting candidates in place. Appended
// indexes are global.
func (r *Relation) appendMatchesIDs(cols uint32, probe []term.ID, dst []int32) []int32 {
	h := maskedIDHash(probe, cols)
	for k, p := range r.parts {
		if p.mayMatch(cols, probe) {
			dst = p.appendMatches(cols, probe, h, r.partOff[k], dst)
		}
	}
	if len(r.tuples) == 0 {
		return dst
	}
	ci := r.ensureIndex(cols)
	base := len(dst)
	dst = ci.lookup(h, dst)
	// Verify candidates column-wise, compacting in place: hash collisions
	// between distinct probe values share a slot cluster.
	keep := base
	for _, j := range dst[base:] {
		local := int(j) - r.partRows
		ok := true
		for c := range r.cols {
			if cols&(1<<uint(c)) != 0 && r.cols[c][local] != probe[c] {
				ok = false
				break
			}
		}
		if ok {
			dst[keep] = j
			keep++
		}
	}
	return dst[:keep]
}

// Scan calls yield for every tuple whose projection on cols matches
// probe, stopping early if yield returns false. Unlike Lookup it never
// materializes a []Tuple result, and unlike the cols==0 Lookup borrow
// it is safe to insert into the relation from inside yield: the
// full-scan path captures the length up front and the indexed path
// collects match indexes before yielding.
func (r *Relation) Scan(cols uint32, probe Tuple, yield func(Tuple) bool) {
	if cols == 0 {
		all := r.allTuplesView()
		n := len(all)
		for i := 0; i < n; i++ {
			if !yield(all[i]) {
				return
			}
		}
		return
	}
	var stack [16]int32
	for _, j := range r.AppendMatches(cols, probe, stack[:0]) {
		if !yield(r.tupleAt(int(j))) {
			return
		}
	}
}

// TupleAt returns the tuple at row index i. Row indexes are stable:
// relations only grow and rows never move (freezing a tail into a part
// preserves every global index).
func (r *Relation) TupleAt(i int) Tuple { return r.tupleAt(i) }

// Distinct counts the distinct values in column i — exact, via
// interned IDs. The count is served from a per-column cache built on
// first call and maintained incrementally by inserts, so the
// optimizer's stats path pays O(1) per call instead of a fresh map
// over all tuples.
func (r *Relation) Distinct(i int) int {
	if i < 0 || i >= r.Arity {
		return 0
	}
	if dp := r.distincts.Load(); dp != nil {
		if ds := (*dp)[i]; ds != nil {
			return len(ds.seen)
		}
	}
	return len(r.ensureDistinct(i).seen)
}

// ensureDistinct builds and atomically publishes the distinct cache for
// column i, under the same copy-on-write discipline as ensureIndex.
func (r *Relation) ensureDistinct(i int) *distinctSet {
	r.buildMu.Lock()
	defer r.buildMu.Unlock()
	var cur []*distinctSet
	if dp := r.distincts.Load(); dp != nil {
		if ds := (*dp)[i]; ds != nil {
			return ds
		}
		cur = append([]*distinctSet(nil), (*dp)...)
	} else {
		cur = make([]*distinctSet, r.Arity)
	}
	ds := &distinctSet{seen: make(map[term.ID]struct{}, r.Len())}
	for _, p := range r.parts {
		for _, id := range p.cols[i] {
			ds.seen[id] = struct{}{}
		}
	}
	for _, id := range r.cols[i] {
		ds.seen[id] = struct{}{}
	}
	cur[i] = ds
	r.distincts.Store(&cur)
	return ds
}

// noteDistinct folds a just-inserted row's IDs into whichever
// per-column distinct sets exist. Writer-side (insert) only.
func (r *Relation) noteDistinct(ids []term.ID) {
	dp := r.distincts.Load()
	if dp == nil {
		return
	}
	for c, ds := range *dp {
		if ds != nil {
			ds.seen[ids[c]] = struct{}{}
		}
	}
}

// Sorted returns the tuples in canonical order — handy for
// deterministic test output.
func (r *Relation) Sorted() []Tuple {
	out := r.Snapshot()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := term.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d {", r.Name, r.Arity)
	for i, t := range r.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Database maps predicate tags ("name/arity") to relations.
//
// Epoch discipline: a serving process keeps one immutable Database per
// epoch. Readers execute against the epoch they captured; the (single)
// writer never mutates a published epoch — it calls Fork, obtains
// writable relations through EnsureOwned (which copies a shared
// relation the first time the fork writes to it), inserts the batch,
// and atomically publishes the fork as the next epoch. Untouched
// relations are shared by pointer across every epoch, so publication
// costs O(touched relations), not O(database). Concurrent readers of a
// published epoch are safe — including the lazy index and
// distinct-count builds, which publish atomically (see the Relation
// concurrency contract above).
type Database struct {
	rels map[string]*Relation
	// shared marks relations borrowed from a parent Fork: they may be
	// visible to concurrent readers of other epochs and must be copied
	// before the first write (EnsureOwned does).
	shared map[string]bool
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{rels: map[string]*Relation{}} }

// Relation returns the relation for tag, or nil.
func (db *Database) Relation(tag string) *Relation { return db.rels[tag] }

// Ensure returns the relation for tag, creating it if needed. name is
// derived from the tag.
func (db *Database) Ensure(tag string, arity int) *Relation {
	if r, ok := db.rels[tag]; ok {
		return r
	}
	name := tag
	if i := strings.IndexByte(tag, '/'); i >= 0 {
		name = tag[:i]
	}
	r := NewRelation(name, arity)
	db.rels[tag] = r
	return r
}

// Fork returns a database sharing every relation of db by pointer.
// The fork is the writable side of the epoch discipline: reads see the
// parent's relations at zero cost, and the first write to any relation
// must go through EnsureOwned (LoadFacts does), which copies it so the
// parent — possibly serving concurrent readers — is never mutated.
func (db *Database) Fork() *Database {
	c := &Database{
		rels:   make(map[string]*Relation, len(db.rels)),
		shared: make(map[string]bool, len(db.rels)),
	}
	for tag, r := range db.rels {
		c.rels[tag] = r
		c.shared[tag] = true
	}
	return c
}

// FrozenFork returns a database holding the Frozen() form of every
// relation in db — tails converted to immutable shared parts, so
// future epoch forks copy O(delta) instead of O(n) and probes prune
// through the part blooms and zone maps. Relations that are already
// fully frozen are shared by pointer. Like Frozen itself, the receiver
// database's relations must not be written afterwards; the storage
// tier calls this on a published (immutable) epoch right before
// flushing the frozen parts to segment files.
func (db *Database) FrozenFork() *Database {
	c := &Database{
		rels:   make(map[string]*Relation, len(db.rels)),
		shared: make(map[string]bool, len(db.rels)),
	}
	for tag, r := range db.rels {
		c.rels[tag] = r.Frozen()
		c.shared[tag] = true
	}
	return c
}

// EnsureOwned returns a relation for tag that is safe to insert into:
// the existing relation if this database already owns it, a
// copy-on-write clone if it is shared with a parent fork, or a fresh
// relation if the tag is new. Writers in the epoch discipline must use
// it (not Ensure) before every insert.
func (db *Database) EnsureOwned(tag string, arity int) *Relation {
	if r, ok := db.rels[tag]; ok {
		if db.shared[tag] {
			r = r.clone()
			db.rels[tag] = r
			delete(db.shared, tag)
		}
		return r
	}
	return db.Ensure(tag, arity)
}

// Tags returns the sorted relation tags.
func (db *Database) Tags() []string {
	out := make([]string, 0, len(db.rels))
	for t := range db.rels {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// LoadFacts inserts every fact of the program into the database. It
// acquires relations through EnsureOwned, so loading into a Fork never
// mutates relations shared with the parent.
func (db *Database) LoadFacts(prog *lang.Program) error {
	for _, f := range prog.Facts {
		r := db.EnsureOwned(f.Head.Tag(), f.Head.Arity())
		if _, err := r.Insert(Tuple(f.Head.Args)); err != nil {
			return err
		}
	}
	return nil
}

// Clone deep-copies the database's relation contents (not indexes).
// Because stored tuples are immutable and already interned, the copy is
// a straight array copy — no re-hashing or re-interning.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for tag, r := range db.rels {
		c.rels[tag] = r.clone()
	}
	return c
}

// clone copies the relation's tuple store, dedup set, and published
// column indexes. Indexes are cheap flat-array copies and stay correct
// under the clone's future inserts because appendRow maintains every
// published index incrementally — so an epoch fork that extends a large
// relation never pays an O(n log n)-ish rebuild-by-rehash on its first
// probe. The distinct cache is NOT carried over: writers update those
// sets in place (noteDistinct), so sharing or copying them would let a
// clone's inserts corrupt counts a concurrent reader of the parent is
// using. It rebuilds lazily on first use.
func (r *Relation) clone() *Relation {
	nr := &Relation{Name: r.Name, Arity: r.Arity}
	// The immutable prefix is shared by pointer — a clone after Frozen
	// costs O(tail), which is what makes per-epoch copy-on-write of a
	// large frozen relation cheap. Parts' lazy sets/indexes are shared
	// too (built once, used by every epoch).
	nr.parts = r.parts
	nr.partOff = r.partOff
	nr.partRows = r.partRows
	nr.tuples = append([]Tuple(nil), r.tuples...)
	nr.cols = make([]idColumn, r.Arity)
	for c := range r.cols {
		nr.cols[c] = append(idColumn(nil), r.cols[c]...)
	}
	nr.hashes = append([]uint64(nil), r.hashes...)
	nr.setSlots = append([]int32(nil), r.setSlots...)
	nr.setMask = r.setMask
	old := *r.indexes.Load()
	next := make(map[uint32]*colIndex, len(old))
	for cols, ci := range old {
		next[cols] = ci.clone()
	}
	nr.indexes.Store(&next)
	return nr
}

// clone copies a column index: flat array copies, no rehash.
func (ci *colIndex) clone() *colIndex {
	return &colIndex{
		cols:   ci.cols,
		slots:  append([]int32(nil), ci.slots...),
		hashes: append([]uint64(nil), ci.hashes...),
		mask:   ci.mask,
		n:      ci.n,
	}
}
