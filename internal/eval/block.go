package eval

// Block-at-a-time execution of compiled join programs. The executor
// pushes a columnar frame — a struct-of-arrays of interned term.ID
// register columns — of up to defaultBlockSize rows through each step
// at a time, so probes, tests and head insertion run as tight loops
// over dense ID slices with amortized dispatch. Frames stay in ID space
// end to end: scans gather candidate IDs straight from the relation's
// columns (ColumnAt / AppendMatchesID), and terms are only materialized
// at the edges — pattern decomposition, arithmetic, and genuinely new
// head tuples.
//
// Equivalence contract. Block execution preserves the generic
// interpreter's answers, error, and work counters exactly:
//
//   - Emission order is depth-first-identical: a scan appends matches
//     in candidate order and flushes the output frame downstream
//     before gathering more, so head tuples arrive in the order the
//     interpreter's depth-first walk derives them.
//   - Error order is depth-first-equivalent: when a row fails in a
//     filter step, the rows ordered before it keep running through the
//     remaining steps first (their emissions happen; their own error,
//     if any, wins — it is earlier in depth-first order), then the
//     remembered error returns and the rows after it never run.
//   - Counters tick per row exactly where the interpreter ticks per
//     binding: Lookups once per input row of a scan or negation,
//     Unifications once per scan candidate, BuiltinCalls once per row
//     of a test/assign/match step.
//   - Visibility: only the head relation is written during an
//     application, so a scan of any other relation may batch the
//     candidates of many input rows before flushing. A direct-mode scan
//     of the head relation itself (seed rounds of recursive cliques,
//     naive rounds, non-linear semi-naive variants) processes one input
//     row at a time instead: it re-reads the relation's length, gathers
//     that row's candidates reading their IDs from the live relation
//     (earlier emits may have reallocated its columns), and flushes them
//     downstream before the next input row — exactly the snapshot the
//     interpreter takes per binding. Negations never read the head:
//     stratification puts a negated predicate in a lower stratum.
//     Frozen-mode (parallel) applications buffer their emissions and
//     always batch.

import (
	"ldl/internal/lang"
	"ldl/internal/store"
	"ldl/internal/term"
)

// defaultBlockSize is the tuned block size: large enough to amortize
// per-block costs, small enough that a frame's register columns stay
// cache-resident (256 rows × 4-byte IDs = 1KiB/register).
const defaultBlockSize = 256

// bframe is one columnar register frame: cols[reg][row] is the
// interned ID bound to reg at that row. Scan-output frames are dense
// (rows 0..n-1 valid); filter steps narrow a frame with a selection
// vector instead of compacting the columns.
type bframe struct {
	cols [][]term.ID
	n    int
}

// kernelState is the mutable, reusable execution state of one compiled
// rule in one evaluation context (one goroutine): the frames and every
// buffer the join program needs, so steady-state blocks allocate
// nothing. It is pooled per clique sequentially and per worker in the
// parallel engine; constant cells of the probe, negation and head rows
// are prefilled here, once.
type kernelState struct {
	size    int
	rels    []*store.Relation // per scan, resolved per application
	negRels []*store.Relation // per negation, resolved per application
	idxs    [][]int32         // per scan: reusable match-index buffer
	root    *bframe           // single-row entry frame
	frames  []*bframe         // per scan: that scan's output frame
	sels    [][]int32         // per step index: selection scratch
	ident   []int32           // identity selection 0..size-1, read-only
	probes  [][]term.ID       // per scan: probe ID row, const IDs prefilled
	rcols   [][][]term.ID     // per scan: borrowed relation columns
	negIDs  [][]term.ID       // per negation: ID row, const IDs prefilled

	headIDs   [][]term.ID // direct mode: columnar head materialization
	headRow   []term.ID   // frozen mode: per-row head scratch
	headConst []term.ID   // per head column: const ID, 0 otherwise
}

func newKernelState(cr *compiledRule, size int) *kernelState {
	newFrame := func(rows int) *bframe {
		f := &bframe{cols: make([][]term.ID, cr.nregs)}
		for i := range f.cols {
			f.cols[i] = make([]term.ID, rows)
		}
		return f
	}
	ks := &kernelState{
		size:    size,
		rels:    make([]*store.Relation, cr.nscans),
		negRels: make([]*store.Relation, cr.nnegs),
		idxs:    make([][]int32, cr.nscans),
		root:    newFrame(1),
		frames:  make([]*bframe, cr.nscans),
		sels:    make([][]int32, len(cr.steps)),
		ident:   make([]int32, size),
		probes:  make([][]term.ID, cr.nscans),
		rcols:   make([][][]term.ID, cr.nscans),
		negIDs:  make([][]term.ID, cr.nnegs),
	}
	for i := range ks.idxs {
		// Pre-size the match-index buffers: fixpoint rounds reuse this
		// state, and starting at a useful capacity avoids the regrow
		// churn of the first rounds after every reset.
		ks.idxs[i] = make([]int32, 0, 64)
	}
	for i := range ks.frames {
		ks.frames[i] = newFrame(size)
	}
	for i := range ks.ident {
		ks.ident[i] = int32(i)
	}
	for _, st := range cr.steps {
		switch st.kind {
		case kScan:
			p := make([]term.ID, len(st.cols))
			for i, c := range st.cols {
				if c.op == kcolConst {
					p[i] = term.Intern(c.val)
				}
			}
			ks.probes[st.scanIdx] = p
			ks.rcols[st.scanIdx] = make([][]term.ID, len(st.cols))
		case kNeg:
			row := make([]term.ID, len(st.negCols))
			for i, tm := range st.negCols {
				if tm.reg < 0 {
					row[i] = term.Intern(tm.lit)
				}
			}
			ks.negIDs[st.negIdx] = row
		}
	}
	ks.headIDs = make([][]term.ID, len(cr.head))
	for i := range ks.headIDs {
		ks.headIDs[i] = make([]term.ID, size)
	}
	ks.headRow = make([]term.ID, len(cr.head))
	ks.headConst = make([]term.ID, len(cr.head))
	for i, c := range cr.head {
		if c.op == kcolConst {
			ks.headConst[i] = term.Intern(c.val)
		}
	}
	return ks
}

// kstate returns the context's cached kernel state for cr, creating it
// on first use. Contexts are goroutine-local, so no locking.
func (cx *evalCtx) kstate(cr *compiledRule) *kernelState {
	if ks, ok := cx.kstates[cr]; ok {
		return ks
	}
	if cx.kstates == nil {
		cx.kstates = map[*compiledRule]*kernelState{}
	}
	ks := newKernelState(cr, cx.e.opts.blockSize)
	cx.kstates[cr] = ks
	return ks
}

// kernelRun bundles the per-application parameters of a join-program
// execution so the recursive step walk passes a single receiver.
type kernelRun struct {
	cx      *evalCtx
	cr      *compiledRule
	ks      *kernelState
	head    *store.Relation
	headTag string
	collect func(string, store.Tuple)
}

// applyCompiled executes a rule's join program — the compiled
// counterpart of applyRule's generic joinBody walk, with identical
// counter accounting, governor charging, and emit semantics.
func (cx *evalCtx) applyCompiled(cr *compiledRule, deltaOcc int, deltas map[string]*store.Relation, collect func(string, store.Tuple)) error {
	e := cx.e
	ks := cx.kstate(cr)
	// Resolve each scan's relation: the designated delta occurrence
	// reads this round's delta, everything else the full relation.
	for _, st := range cr.steps {
		switch st.kind {
		case kScan:
			ks.rels[st.scanIdx] = e.RelationFor(st.tag)
		case kNeg:
			ks.negRels[st.negIdx] = e.RelationFor(st.negTag)
		}
	}
	if deltas != nil && deltaOcc >= 0 && deltaOcc < len(cr.scanForBody) {
		if si := cr.scanForBody[deltaOcc]; si >= 0 {
			ks.rels[si] = deltas[cr.steps[cr.scanStep[si]].tag]
		}
	}
	k := kernelRun{
		cx:      cx,
		cr:      cr,
		ks:      ks,
		head:    e.ensureDerived(cr.rule.Head.Tag(), cr.rule.Head.Arity()),
		headTag: cr.rule.Head.Tag(),
		collect: collect,
	}
	// Start from the single-row root frame: no registers are bound
	// before step 0.
	return k.run(0, ks.root, ks.ident[:1])
}

// run executes the join program from step si onward over the selected
// rows of frame f.
func (k *kernelRun) run(si int, f *bframe, sel []int32) error {
	if len(sel) == 0 {
		return nil
	}
	// Same deadline discipline as joinBody, amortized: the join can
	// churn without deriving anything new, so tick once per (step,
	// block) rather than only on derivation.
	if err := k.cx.e.opts.Gov.Tick(); err != nil {
		return err
	}
	if si == len(k.cr.steps) {
		return k.emit(f, sel)
	}
	st := &k.cr.steps[si]
	switch st.kind {
	case kScan:
		return k.scan(si, st, f, sel)
	case kTest:
		keep := k.ks.sels[si][:0]
		var rowErr error
		for _, r := range sel {
			k.cx.counters.BuiltinCalls++
			ok, err := k.evalTestRow(st, f, r)
			if err != nil {
				// Depth-first error discipline: finish the rows ordered
				// before this one (their error, if any, is earlier and
				// wins), drop the rows after it, then surface this error.
				rowErr = err
				break
			}
			if ok {
				keep = append(keep, r)
			}
		}
		k.ks.sels[si] = keep
		if err := k.run(si+1, f, keep); err != nil {
			return err
		}
		return rowErr
	case kAssign:
		keep := k.ks.sels[si][:0]
		var rowErr error
		dst := f.cols[st.dstReg]
		for _, r := range sel {
			k.cx.counters.BuiltinCalls++
			id, err := k.resolveNormRowID(st.rhs, f, r)
			if err != nil {
				rowErr = err
				break
			}
			dst[r] = id
			keep = append(keep, r)
		}
		k.ks.sels[si] = keep
		if err := k.run(si+1, f, keep); err != nil {
			return err
		}
		return rowErr
	case kMatch:
		keep := k.ks.sels[si][:0]
		var rowErr error
		for _, r := range sel {
			k.cx.counters.BuiltinCalls++
			v, err := k.resolveNormRow(st.rhs, f, r)
			if err != nil {
				rowErr = err
				break
			}
			if matchPatID(st.pat, v, f.cols, r) {
				keep = append(keep, r)
			}
		}
		k.ks.sels[si] = keep
		if err := k.run(si+1, f, keep); err != nil {
			return err
		}
		return rowErr
	case kNeg:
		rel := k.ks.negRels[st.negIdx]
		keep := k.ks.sels[si][:0]
		row := k.ks.negIDs[st.negIdx]
		for _, r := range sel {
			// The interpreter counts the lookup before the nil check; a
			// missing relation still passes every row.
			k.cx.counters.Lookups++
			if rel != nil {
				for i, tm := range st.negCols {
					if tm.reg >= 0 {
						row[i] = f.cols[tm.reg][r]
					}
				}
				if rel.ContainsIDs(row) {
					continue
				}
			}
			keep = append(keep, r)
		}
		k.ks.sels[si] = keep
		return k.run(si+1, f, keep)
	}
	return nil
}

// scan gathers, for every selected input row, the matching candidate
// rows of the step's relation into the scan's output frame, flushing
// it downstream whenever it fills — so emission order stays depth-
// first-identical while probes and gathers run over dense ID columns.
// A direct-mode scan of the head relation also flushes after every
// input row (see the visibility note in the package comment).
func (k *kernelRun) scan(si int, st *kstep, f *bframe, sel []int32) error {
	rel := k.ks.rels[st.scanIdx]
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	ks := k.ks
	out := ks.frames[st.scanIdx]
	out.n = 0
	flush := func() error {
		if out.n == 0 {
			return nil
		}
		k.cx.counters.Blocks++
		n := out.n
		out.n = 0
		return k.run(si+1, out, ks.ident[:n])
	}
	// A scan of a relation nothing writes during the application borrows
	// its columns once. A direct-mode scan of the head borrows nothing:
	// its candidates read IDs from the live relation (IDAt), which
	// earlier emits may have grown or reallocated, and which for a
	// parts-backed materialized view has no combined column to borrow
	// without copying the whole relation.
	perRow := k.cx.buf == nil && rel == k.head
	var rcols [][]term.ID
	if !perRow {
		rcols = ks.rcols[st.scanIdx]
		for c := range rcols {
			rcols[c] = rel.ColumnAt(c)
		}
	}
	probe := ks.probes[st.scanIdx]
	for _, r := range sel {
		if st.mask == 0 {
			// Full scan: snapshot the length per input row, as the
			// interpreter's Lookup does.
			k.cx.counters.Lookups++
			n := rel.Len()
			for j := 0; j < n; j++ {
				k.candidate(st, f, r, rcols, rel, int32(j), out)
				if out.n == ks.size {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		} else {
			ok := true
			for i, c := range st.cols {
				switch c.op {
				case kcolProbe:
					probe[i] = f.cols[c.reg][r]
				case kcolBuild:
					// A constructed probe value that was never interned
					// cannot equal any stored value: count the lookup (the
					// interpreter probes and finds nothing) and move on.
					id, found := term.TryLookupID(buildTermID(c.bld, f.cols, r))
					if !found {
						ok = false
					}
					probe[i] = id
				}
			}
			k.cx.counters.Lookups++
			if ok {
				// AppendMatchesID collects every match index before any
				// candidate is touched, so emits into the same relation
				// cannot disturb the iteration. The buffer is stored back
				// to keep its grown capacity.
				idxs := rel.AppendMatchesID(st.mask, probe, ks.idxs[st.scanIdx][:0])
				ks.idxs[st.scanIdx] = idxs
				for _, j := range idxs {
					k.candidate(st, f, r, rcols, rel, j, out)
					if out.n == ks.size {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}
		}
		if perRow {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// candidate verifies one scan candidate against the non-probe columns
// and, on success, appends its bindings as a new row of out. rcols are
// the relation's borrowed columns, or nil to read the live relation.
func (k *kernelRun) candidate(st *kstep, f *bframe, r int32, rcols [][]term.ID, rel *store.Relation, j int32, out *bframe) {
	k.cx.counters.Unifications++
	o := out.n
	// Carry the registers bound before this step into the output row
	// first; column processing below is left to right, so a pattern's
	// probe can read a register an earlier column just bound.
	for reg := 0; reg < st.nbound; reg++ {
		out.cols[reg][o] = f.cols[reg][r]
	}
	for i, c := range st.cols {
		switch c.op {
		case kcolOut:
			out.cols[c.reg][o] = colID(rcols, rel, i, j)
		case kcolChk:
			if out.cols[c.reg][o] != colID(rcols, rel, i, j) {
				return
			}
		case kcolPat:
			if !matchPatID(c.pat, rel.TupleAt(int(j))[i], out.cols, int32(o)) {
				return
			}
			// kcolConst, kcolProbe, kcolBuild: always part of the probe
			// mask, so the candidate arrives pre-verified.
		}
	}
	out.n++
}

// colID reads column c of candidate row j from the borrowed columns,
// or from the live relation when rcols is nil.
func colID(rcols [][]term.ID, rel *store.Relation, c int, j int32) term.ID {
	if rcols != nil {
		return rcols[c][j]
	}
	return rel.IDAt(c, int(j))
}

// matchPatID matches a ground value against a pattern template,
// binding fresh registers of row r — the executor's one-way
// unification: the value side is ground (it came out of a relation or
// a bound template), so no occurs check or bidirectional binding is
// needed. Patterns reach below the column granularity the frame
// stores, so the candidate side is a term; registers hold interned IDs.
func matchPatID(p *kpat, v term.Term, cols [][]term.ID, r int32) bool {
	switch p.kind {
	case patConst:
		return term.Equal(p.lit, v)
	case patProbe:
		return term.Equal(term.InternedTerm(cols[p.reg][r]), v)
	case patOut:
		id, _, ok := term.TryIntern(v)
		if !ok {
			return false // unreachable: candidate values are ground
		}
		cols[p.reg][r] = id
		return true
	case patComp:
		c, ok := v.(term.Comp)
		if !ok || c.Functor != p.functor || len(c.Args) != len(p.args) {
			return false
		}
		for i, ap := range p.args {
			if !matchPatID(ap, c.Args[i], cols, r) {
				return false
			}
		}
		return true
	}
	return false
}

// buildTermID assembles a construction template's term over row r of
// an ID frame. Registers hold only ground values, so the result is
// always ground.
func buildTermID(bld *btmpl, cols [][]term.ID, r int32) term.Term {
	if bld.args != nil {
		out := make([]term.Term, len(bld.args))
		for i := range bld.args {
			out[i] = buildTermID(&bld.args[i], cols, r)
		}
		return term.Comp{Functor: bld.functor, Args: out}
	}
	if bld.reg >= 0 {
		return term.InternedTerm(cols[bld.reg][r])
	}
	return bld.lit
}

// evalTestRow evaluates a comparison step for one row, lhs first (the
// order lang.EvalBuiltin evaluates in, so error timing matches).
func (k *kernelRun) evalTestRow(st *kstep, f *bframe, r int32) (bool, error) {
	switch st.test {
	case testEq, testNe:
		lid, err := k.resolveNormRowID(st.lhs, f, r)
		if err != nil {
			return false, err
		}
		rid, err := k.resolveNormRowID(st.rhs, f, r)
		if err != nil {
			return false, err
		}
		// Normalized sides are interned, so structural equality is ID
		// equality.
		eq := lid == rid
		if st.test == testEq {
			return eq, nil
		}
		return !eq, nil
	}
	a, err := k.evalArithRow(st.lhs, f, r)
	if err != nil {
		return false, err
	}
	c, err := k.evalArithRow(st.rhs, f, r)
	if err != nil {
		return false, err
	}
	switch st.test {
	case testLt:
		return a < c, nil
	case testLe:
		return a <= c, nil
	case testGt:
		return a > c, nil
	case testGe:
		return a >= c, nil
	}
	return false, nil
}

// resolveNormRowID resolves a template for one row to an interned ID
// with "=" normalization: arithmetic expressions (static or dynamic)
// evaluate to their integer value, everything else passes through.
func (k *kernelRun) resolveNormRowID(t tmpl, f *bframe, r int32) (term.ID, error) {
	if t.args != nil {
		v, err := k.evalArithRow(t, f, r)
		if err != nil {
			return 0, err
		}
		return term.Intern(v), nil
	}
	if t.reg >= 0 {
		id := f.cols[t.reg][r]
		v := term.InternedTerm(id)
		if lang.IsArithExpr(v) {
			iv, err := lang.EvalArith(v)
			if err != nil {
				return 0, err
			}
			return term.Intern(iv), nil
		}
		return id, nil
	}
	v, err := lang.NormalizeEqSide(t.lit)
	if err != nil {
		return 0, err
	}
	return term.Intern(v), nil
}

// resolveNormRow is resolveNormRowID returning the term itself — the
// value side of a kMatch step, which the pattern walk consumes
// structurally.
func (k *kernelRun) resolveNormRow(t tmpl, f *bframe, r int32) (term.Term, error) {
	if t.args != nil {
		v, err := k.evalArithRow(t, f, r)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	if t.reg >= 0 {
		return lang.NormalizeEqSide(term.InternedTerm(f.cols[t.reg][r]))
	}
	return lang.NormalizeEqSide(t.lit)
}

// evalArithRow evaluates a template as an arithmetic expression for
// one row, without constructing term.Comp nodes for the variable-
// bearing expressions the compiler broke into sub-templates.
func (k *kernelRun) evalArithRow(t tmpl, f *bframe, r int32) (term.Int, error) {
	if t.args == nil {
		if t.reg >= 0 {
			return lang.EvalArith(term.InternedTerm(f.cols[t.reg][r]))
		}
		return lang.EvalArith(t.lit)
	}
	a, err := k.evalArithRow(t.args[0], f, r)
	if err != nil {
		return 0, err
	}
	if len(t.args) == 1 {
		return lang.ApplyArith1(t.functor, a)
	}
	c, err := k.evalArithRow(t.args[1], f, r)
	if err != nil {
		return 0, err
	}
	return lang.ApplyArith2(t.functor, a, c)
}

// headID materializes head column i for one row.
func (k *kernelRun) headID(i int, f *bframe, r int32) term.ID {
	c := &k.cr.head[i]
	switch c.op {
	case kcolProbe:
		return f.cols[c.reg][r]
	case kcolBuild:
		// Constructed head terms enter the store, so interning them is
		// not probe-side waste.
		return term.Intern(buildTermID(c.bld, f.cols, r))
	default: // kcolConst
		return k.ks.headConst[i]
	}
}

// emit inserts (direct mode) or buffers (frozen mode) the selected
// rows' head tuples, in row order — the block twin of applyRule's emit
// closure, with identical dedup, counter, and abort semantics per row.
func (k *kernelRun) emit(f *bframe, sel []int32) error {
	cx, ks := k.cx, k.ks
	if cx.buf != nil {
		// Frozen mode: dedup against the stable head snapshot, buffer
		// the rest. InsertIDs copies the row values, so the reusable
		// scratch row never aliases the buffer.
		row := ks.headRow
		for _, r := range sel {
			for i := range ks.headRow {
				row[i] = k.headID(i, f, r)
			}
			if k.head.ContainsIDs(row) {
				continue
			}
			added, err := cx.buf.InsertIDs(row)
			if err != nil {
				return err
			}
			if !added {
				continue
			}
			if err := cx.recordBuffered(); err != nil {
				return err
			}
		}
		return nil
	}
	// Direct mode: materialize the block's head rows columnar and
	// bulk-insert; onNew fires per genuinely new row, in row order, so
	// TuplesDerived accounting and delta collection match the
	// interpreter's per-row emit exactly.
	m := 0
	for _, r := range sel {
		for i := range ks.headIDs {
			ks.headIDs[i][m] = k.headID(i, f, r)
		}
		m++
	}
	_, err := k.head.InsertRows(ks.headIDs, m, func(idx int) error {
		return cx.recordInserted(k.headTag, k.head.TupleAt(idx), k.collect)
	})
	return err
}
