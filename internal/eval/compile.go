package eval

// Rule compilation to positional join kernels. The paper's premise
// (§4, §7) is that rules are *compiled* into relational operations in
// the order the optimizer chose; this file realizes that for the
// fixpoint engine. compileRule turns a rule body into a join program —
// a flat array of steps whose column behavior is resolved once, at
// compile time:
//
//   - each positive literal becomes a scan step whose columns are
//     classified as constants (index probe), already-bound variables
//     (index probe from a register), first occurrences (write a
//     register), or repeats within the literal (compare a register);
//   - each builtin becomes a test or an assignment placed at the
//     earliest point its arguments are instantiated — the effective
//     computability (EC) schedule of §8.1, resolved statically because
//     instantiation depends only on literal order, never on data;
//   - each negated literal becomes an anti-join membership test, again
//     placed at its EC point.
//
// The block executor (block.go) runs these programs over columnar
// register frames: no substitution maps, no Clone, no ResolveAll.
// Complex terms compile too: a compound argument with fresh variables
// becomes a decomposition pattern (kcolPat / kMatch), a compound whose
// variables are all bound becomes a construction template (kcolBuild)
// in probes and head positions. Rules the compiler still cannot prove
// safe for this representation — an "=" needing bidirectional
// unification, a head variable no body literal binds, goals whose EC
// point never arrives — return nil and fall back to the generic
// joinBody interpreter, preserving its answers and its error timing
// exactly.

import (
	"ldl/internal/lang"
	"ldl/internal/term"
)

// kcolOp classifies one column of a scan step (or head template).
type kcolOp uint8

const (
	// kcolConst: the column must equal a compile-time constant; part of
	// the index probe (or prefilled in the head buffer).
	kcolConst kcolOp = iota
	// kcolProbe: the column must equal a register bound before this
	// step; part of the index probe (or copied into the head buffer).
	kcolProbe
	// kcolOut: first occurrence of a variable — write the candidate's
	// column value into the register.
	kcolOut
	// kcolChk: the variable first occurred earlier in this same literal
	// — compare the candidate's column against the register.
	kcolChk
	// kcolPat: a compound argument containing at least one variable not
	// yet bound — decompose the candidate's column against a pattern
	// template, binding fresh registers (cons(H, T) pulling a list
	// apart). Cannot join the probe mask: its value is unknown until
	// the candidate arrives.
	kcolPat
	// kcolBuild: a compound argument (or head position) whose variables
	// are all bound — construct the term from the registers. In a scan
	// it joins the probe mask, exactly like the generic interpreter,
	// whose per-row resolution makes such a column ground.
	kcolBuild
)

// kcol is one column's compiled behavior.
type kcol struct {
	op  kcolOp
	reg int       // kcolProbe/kcolOut/kcolChk
	val term.Term // kcolConst
	pat *kpat     // kcolPat
	bld *btmpl    // kcolBuild
}

// kpatKind discriminates pattern-template nodes.
type kpatKind uint8

const (
	// patConst: the subterm must equal a ground compile-time constant.
	patConst kpatKind = iota
	// patProbe: the subterm must equal a register bound earlier (in an
	// earlier step, or by a patOut to the left in this same pattern).
	patProbe
	// patOut: first occurrence of a variable — bind the register to the
	// subterm.
	patOut
	// patComp: the subterm must be a compound with this functor and
	// arity; recurse into the argument patterns left to right.
	patComp
)

// kpat is a compiled decomposition pattern: one-way structural
// unification of a pattern containing variables against a ground
// candidate value. Matching walks candidates left to right, so a
// variable bound by a patOut is visible to every patProbe after it —
// the same order term.Unify resolves a non-ground pattern.
type kpat struct {
	kind    kpatKind
	reg     int       // patProbe/patOut
	lit     term.Term // patConst
	functor string    // patComp
	args    []*kpat   // patComp
}

// btmpl is a compiled construction template: a ground term assembled
// structurally from registers and constants. Construction is purely
// structural — arithmetic functors are built as compound terms, not
// evaluated, exactly as the generic interpreter's ResolveAll leaves
// them in head positions and probe columns.
type btmpl struct {
	reg     int       // >= 0: copy a register
	lit     term.Term // ground literal
	functor string    // compound node
	args    []btmpl   // compound node arguments
}

// kstepKind discriminates the step variants of a join program.
type kstepKind uint8

const (
	kScan   kstepKind = iota // positive literal: indexed relation scan
	kTest   kstepKind = iota // builtin comparison over bound values
	kAssign                  // "=" binding a fresh variable to a value
	kNeg                     // negated literal: membership anti-test
	kMatch                   // "=" decomposing a bound value against a pattern
)

// testOp is the comparison operator of a kTest step.
type testOp uint8

const (
	testEq testOp = iota
	testNe
	testLt
	testLe
	testGt
	testGe
)

// tmpl is a compiled value template: a register reference, a ground
// literal term, or an arithmetic expression over sub-templates
// (evaluated over register values without constructing term.Comp
// nodes). Exactly one representation applies: args != nil → arithmetic
// node, else reg >= 0 → register, else lit.
type tmpl struct {
	reg     int
	lit     term.Term
	functor string
	args    []tmpl
}

// kstep is one step of a join program. A single struct with per-kind
// fields keeps the executor loop free of interface dispatch.
type kstep struct {
	kind kstepKind

	// kScan
	tag     string // predicate tag, resolved to a relation per application
	scanIdx int    // index into kernelState's per-scan slices
	mask    uint32 // probe columns (kcolConst + kcolProbe + kcolBuild)
	cols    []kcol // per-column behavior, len == literal arity
	nbound  int    // registers bound before this step, carried into its output frame

	// kTest / kAssign / kMatch
	test     testOp
	lhs, rhs tmpl  // kTest: both sides; kAssign/kMatch: rhs only
	dstReg   int   // kAssign: register receiving the value
	pat      *kpat // kMatch: pattern matched against rhs's value

	// kNeg
	negTag  string
	negIdx  int    // index into kernelState.{negRels, negIDs}
	negCols []tmpl // register-or-literal templates only
}

// compiledRule is a rule's join program. It is immutable after
// compilation and safely shared across goroutines; all mutable
// execution state lives in kernelState.
type compiledRule struct {
	rule   lang.Rule
	steps  []kstep
	nregs  int
	nscans int
	nnegs  int
	head   []kcol // kcolConst or kcolProbe only
	// scanForBody maps a body-literal index to its scan step's scanIdx
	// (-1 for builtins/negations) — the delta-occurrence remap used by
	// semi-naive variants, which share this one program.
	scanForBody []int
	// scanStep maps a scanIdx back to its index in steps.
	scanStep []int
}

// ProgramKernels is the once-per-program compiled kernel set: one join
// program (or nil, for generic-interpreter rules) per rule of the
// program, indexed by global rule index. It is immutable and safely
// shared across engines and goroutines — the serving layer compiles a
// prepared query form's program once and every subsequent execution
// reuses the same kernels, paying zero compilation.
type ProgramKernels struct {
	prog  *lang.Program
	rules []*compiledRule
}

// CompileProgram compiles every rule of prog to its join kernel.
func CompileProgram(prog *lang.Program) *ProgramKernels {
	pk := &ProgramKernels{prog: prog, rules: make([]*compiledRule, len(prog.Rules))}
	for i, r := range prog.Rules {
		pk.rules[i] = compileRule(r)
	}
	return pk
}

// compileRule compiles r to a join program, or returns nil when the
// rule needs the generic interpreter: a non-ground compound argument
// anywhere the kernel would have to unify or construct terms, a head
// variable no body literal binds (the generic path raises the unsafe-
// rule error), or a deferred goal whose EC point never arrives.
func compileRule(r lang.Rule) *compiledRule {
	cr := &compiledRule{rule: r, scanForBody: make([]int, len(r.Body))}
	regOf := map[string]int{}
	newReg := func(name string) int {
		reg := cr.nregs
		cr.nregs++
		regOf[name] = reg
		return reg
	}

	// mkTmpl compiles a fully-instantiated value position. Non-arith
	// compounds containing variables would require construction per
	// candidate — generic path territory.
	var mkTmpl func(t term.Term) (tmpl, bool)
	mkTmpl = func(t term.Term) (tmpl, bool) {
		switch x := t.(type) {
		case term.Var:
			reg, ok := regOf[x.Name]
			if !ok {
				return tmpl{}, false
			}
			return tmpl{reg: reg, lit: nil}, true
		case term.Comp:
			if term.Ground(t) {
				return tmpl{reg: -1, lit: t}, true
			}
			if n, isOp := lang.ArithArity(x.Functor); isOp && len(x.Args) == n {
				args := make([]tmpl, len(x.Args))
				for i, a := range x.Args {
					at, ok := mkTmpl(a)
					if !ok {
						return tmpl{}, false
					}
					args[i] = at
				}
				return tmpl{reg: -1, functor: x.Functor, args: args}, true
			}
			return tmpl{}, false
		default: // Atom, Int, Str
			return tmpl{reg: -1, lit: t}, true
		}
	}

	// mkBuild compiles a construction template: every variable must be
	// bound already. Construction is structural (see btmpl).
	var mkBuild func(t term.Term) (btmpl, bool)
	mkBuild = func(t term.Term) (btmpl, bool) {
		switch x := t.(type) {
		case term.Var:
			reg, ok := regOf[x.Name]
			if !ok {
				return btmpl{}, false
			}
			return btmpl{reg: reg}, true
		case term.Comp:
			if term.Ground(t) {
				return btmpl{reg: -1, lit: t}, true
			}
			args := make([]btmpl, len(x.Args))
			for i, a := range x.Args {
				bt, ok := mkBuild(a)
				if !ok {
					return btmpl{}, false
				}
				args[i] = bt
			}
			return btmpl{reg: -1, functor: x.Functor, args: args}, true
		default:
			return btmpl{reg: -1, lit: t}, true
		}
	}

	// mkPat compiles a decomposition pattern. Fresh variables allocate
	// registers and are marked in newHere, so a later plain occurrence
	// in the same scan literal compiles to a compare (kcolChk), never a
	// probe — the value only exists once the candidate arrives.
	var mkPat func(t term.Term, newHere map[string]bool) *kpat
	mkPat = func(t term.Term, newHere map[string]bool) *kpat {
		switch x := t.(type) {
		case term.Var:
			if reg, have := regOf[x.Name]; have {
				return &kpat{kind: patProbe, reg: reg}
			}
			p := &kpat{kind: patOut, reg: newReg(x.Name)}
			if newHere != nil {
				newHere[x.Name] = true
			}
			return p
		case term.Comp:
			if term.Ground(t) {
				return &kpat{kind: patConst, lit: t}
			}
			args := make([]*kpat, len(x.Args))
			for i, a := range x.Args {
				args[i] = mkPat(a, newHere)
			}
			return &kpat{kind: patComp, functor: x.Functor, args: args}
		default:
			return &kpat{kind: patConst, lit: t}
		}
	}

	boundSet := func() map[string]bool {
		m := make(map[string]bool, len(regOf))
		for v := range regOf {
			m[v] = true
		}
		return m
	}

	// compileDeferred compiles a builtin or negated goal at its EC
	// point. ready=false defers it; ok=false forces generic fallback.
	compileDeferred := func(l lang.Literal) (ready, ok bool) {
		if l.Neg {
			if lang.IsBuiltin(l.Pred) {
				return false, false // Validate rejects these; be safe
			}
			set := map[string]bool{}
			l.VarSet(set)
			for v := range set {
				if _, have := regOf[v]; !have {
					return false, true
				}
			}
			st := kstep{kind: kNeg, negTag: l.Tag(), negIdx: cr.nnegs, negCols: make([]tmpl, len(l.Args))}
			for i, a := range l.Args {
				tm, tok := mkTmpl(a)
				if !tok || tm.args != nil {
					// Compound args (even arithmetic ones: the generic
					// path probes them structurally, unevaluated) need
					// term construction — fall back.
					return false, false
				}
				st.negCols[i] = tm
			}
			cr.nnegs++
			cr.steps = append(cr.steps, st)
			return true, true
		}
		// Builtin.
		if len(l.Args) != 2 {
			return false, false // generic path raises the arity error
		}
		if !lang.BuiltinEC(l, boundSet()) {
			return false, true
		}
		lhs, rhs := l.Args[0], l.Args[1]
		if l.Pred == lang.OpEq {
			lt, lok := mkTmpl(lhs)
			rt, rok := mkTmpl(rhs)
			if lok && rok {
				cr.steps = append(cr.steps, kstep{kind: kTest, test: testEq, lhs: lt, rhs: rt})
				return true, true
			}
			// One side failed to template. EC guarantees at least one
			// side is fully bound; if the other is a single fresh
			// variable this is an assignment, and a compound with fresh
			// variables is a decomposition match against the bound
			// side's value. Both sides failing (a bound compound that
			// is neither ground nor arithmetic on each side) needs
			// bidirectional unification — fall back.
			if !lok && !rok {
				return false, false
			}
			value, pattern := lt, rhs
			if !lok {
				value, pattern = rt, lhs
			}
			if v, isVar := pattern.(term.Var); isVar {
				cr.steps = append(cr.steps, kstep{kind: kAssign, dstReg: newReg(v.Name), rhs: value})
				return true, true
			}
			// A pattern with an arithmetic top-level functor must stay
			// generic: EvalBuiltin normalizes both sides, so the generic
			// path evaluates it per row (typically to a per-row error,
			// since it failed to template), where a match would compare
			// it structurally. Below top level the generic path leaves
			// arithmetic functors unevaluated, so patterns may contain
			// them freely.
			if lang.IsArithExpr(pattern) {
				return false, false
			}
			cr.steps = append(cr.steps, kstep{kind: kMatch, pat: mkPat(pattern, nil), rhs: value})
			return true, true
		}
		var op testOp
		switch l.Pred {
		case lang.OpNe:
			op = testNe
		case lang.OpLt:
			op = testLt
		case lang.OpLe:
			op = testLe
		case lang.OpGt:
			op = testGt
		case lang.OpGe:
			op = testGe
		default:
			return false, false
		}
		lt, lok := mkTmpl(lhs)
		rt, rok := mkTmpl(rhs)
		if !lok || !rok {
			return false, false
		}
		cr.steps = append(cr.steps, kstep{kind: kTest, test: op, lhs: lt, rhs: rt})
		return true, true
	}

	var pending []lang.Literal
	// flushPending retries deferred goals after a binding step, with a
	// restart after each success — mirroring joinBody's pi = -1 loop:
	// an assignment flushed from pending may enable another goal.
	flushPending := func() bool {
		for pi := 0; pi < len(pending); pi++ {
			ready, ok := compileDeferred(pending[pi])
			if !ok {
				return false
			}
			if !ready {
				continue
			}
			pending = append(pending[:pi:pi], pending[pi+1:]...)
			pi = -1
		}
		return true
	}

	for bi, l := range r.Body {
		cr.scanForBody[bi] = -1
		if l.Neg || lang.IsBuiltin(l.Pred) {
			ready, ok := compileDeferred(l)
			if !ok {
				return nil
			}
			if !ready {
				pending = append(pending, l)
				continue
			}
			if !flushPending() {
				return nil
			}
			continue
		}
		// Positive relational literal → scan step.
		if len(l.Args) > lang.MaxAdornArity {
			return nil // Validate rejects these; be safe
		}
		st := kstep{kind: kScan, tag: l.Tag(), scanIdx: cr.nscans, cols: make([]kcol, len(l.Args)), nbound: cr.nregs}
		newHere := map[string]bool{}
		for ai, a := range l.Args {
			if v, isVar := a.(term.Var); isVar {
				if reg, have := regOf[v.Name]; have {
					if newHere[v.Name] {
						st.cols[ai] = kcol{op: kcolChk, reg: reg}
					} else {
						st.cols[ai] = kcol{op: kcolProbe, reg: reg}
						st.mask |= 1 << uint(ai)
					}
					continue
				}
				st.cols[ai] = kcol{op: kcolOut, reg: newReg(v.Name)}
				newHere[v.Name] = true
				continue
			}
			if !term.Ground(a) {
				// A compound with variables. All bound (and none bound
				// first in this literal, whose value only exists per
				// candidate): construct it per application and probe —
				// the generic interpreter's per-row resolution makes
				// such a column ground, so it probes on it too, and the
				// candidate sets (hence the work counters) must agree.
				// Otherwise: decompose the candidate's column against a
				// pattern, binding the fresh variables.
				if bt, ok := mkBuild(a); ok && !anyNewHere(a, newHere) {
					st.cols[ai] = kcol{op: kcolBuild, bld: &bt}
					st.mask |= 1 << uint(ai)
					continue
				}
				st.cols[ai] = kcol{op: kcolPat, pat: mkPat(a, newHere)}
				continue
			}
			st.cols[ai] = kcol{op: kcolConst, val: a}
			st.mask |= 1 << uint(ai)
		}
		cr.scanForBody[bi] = st.scanIdx
		cr.scanStep = append(cr.scanStep, len(cr.steps))
		cr.nscans++
		cr.steps = append(cr.steps, st)
		if !flushPending() {
			return nil
		}
	}
	if len(pending) > 0 {
		return nil // generic path raises "never became evaluable"
	}
	// Head template: registers, constants, and fully-bound construction
	// templates (cons(Y, P) assembled from body bindings). A variable no
	// body literal binds falls back to the generic path, which raises
	// the unsafe-rule error — including one buried in a compound.
	cr.head = make([]kcol, len(r.Head.Args))
	for ai, a := range r.Head.Args {
		if v, isVar := a.(term.Var); isVar {
			reg, have := regOf[v.Name]
			if !have {
				return nil
			}
			cr.head[ai] = kcol{op: kcolProbe, reg: reg}
			continue
		}
		if !term.Ground(a) {
			bt, ok := mkBuild(a)
			if !ok {
				return nil
			}
			cr.head[ai] = kcol{op: kcolBuild, bld: &bt}
			continue
		}
		cr.head[ai] = kcol{op: kcolConst, val: a}
	}
	return cr
}

// anyNewHere reports whether t contains a variable first bound inside
// the scan literal currently being compiled — such a variable has no
// value until the candidate arrives, so a compound containing it can
// never be constructed into the probe.
func anyNewHere(t term.Term, newHere map[string]bool) bool {
	switch x := t.(type) {
	case term.Var:
		return newHere[x.Name]
	case term.Comp:
		for _, a := range x.Args {
			if anyNewHere(a, newHere) {
				return true
			}
		}
	}
	return false
}
