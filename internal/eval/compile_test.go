package eval

import (
	"fmt"
	"strings"
	"testing"

	"ldl/internal/parser"
)

// parseOneRule parses src and returns its single rule.
func parseOneRule(t *testing.T, src string) *compiledRule {
	t.Helper()
	prog, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("want 1 rule, got %d", len(prog.Rules))
	}
	return compileRule(prog.Rules[0])
}

func TestCompileRuleCompilability(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		compile bool
	}{
		{"linear recursion", "tc(X, Y) <- e(X, Z), tc(Z, Y).", true},
		{"constants and repeats", "p(X) <- e(1, X), e(X, X).", true},
		{"inline builtin after binding", "p(X) <- q(X), X > 3.", true},
		{"deferred builtin before binding", "p(X) <- X > 3, q(X).", true},
		{"assignment", "p(Y) <- q(X), Y = X + 1.", true},
		{"deferred assignment", "p(Y) <- Y = X + 1, q(X).", true},
		{"negation", "p(X) <- q(X), not r(X).", true},
		{"deferred negation", "p(X) <- not r(X), q(X).", true},
		{"eq test both bound", "p(X) <- q(X), r(Y), X = Y.", true},
		{"ground compound column", "p(X) <- q(f(a), X).", true},
		{"constant head column", "p(X, 0) <- q(X).", true},
		{"complex head term", "p(X, f(X)) <- q(X).", true},
		{"non-ground compound column", "p(X) <- q(f(X)).", true},
		{"bound compound probe column", "p(X) <- q(X), r(f(X)).", true},
		{"eq needs unification", "p(X) <- q(Y), f(X) = Y.", true},

		{"unbound head variable", "p(X, Y) <- q(X).", false},
		{"unbound head compound variable", "p(X, f(Y)) <- q(X).", false},
		{"never-evaluable builtin", "p(X) <- X > Y, q(X).", false},
		{"never-ground negation", "p(X) <- q(X), not r(X, Z).", false},
		{"eq both sides compound", "p(X, Y) <- q(X), r(Y), f(X) = f(Y).", false},
		{"compound negation arg", "p(X) <- q(X), not r(f(X)).", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cr := parseOneRule(t, c.src)
			if (cr != nil) != c.compile {
				t.Errorf("compileRule(%q): compiled=%v, want %v", c.src, cr != nil, c.compile)
			}
		})
	}
}

func TestCompiledProgramShape(t *testing.T) {
	cr := parseOneRule(t, "p(Y) <- e(X, Z), Y = Z + 1, tc(Z, Y), not r(X).")
	if cr == nil {
		t.Fatal("rule should compile")
	}
	kinds := make([]kstepKind, len(cr.steps))
	for i, st := range cr.steps {
		kinds[i] = st.kind
	}
	// e scan binds X, Z; the assignment becomes evaluable immediately
	// after; tc probes on both columns; the negation waits for nothing
	// new but sits at its body position.
	want := []kstepKind{kScan, kAssign, kScan, kNeg}
	for i := range want {
		if i >= len(kinds) || kinds[i] != want[i] {
			t.Fatalf("step kinds = %v, want %v", kinds, want)
		}
	}
	if cr.nscans != 2 || cr.nnegs != 1 || cr.nregs != 3 {
		t.Errorf("nscans=%d nnegs=%d nregs=%d, want 2 1 3", cr.nscans, cr.nnegs, cr.nregs)
	}
	// The tc scan probes both columns (Z and Y are bound by then).
	if tc := cr.steps[2]; tc.mask != 0b11 {
		t.Errorf("tc scan mask = %b, want 11", tc.mask)
	}
	// Semi-naive remap: body literal 0 (e) is scan 0, literal 2 (tc) is
	// scan 1, the builtin and negation are not scans.
	if got := cr.scanForBody; !(got[0] == 0 && got[1] == -1 && got[2] == 1 && got[3] == -1) {
		t.Errorf("scanForBody = %v", got)
	}
}

// descendingChainTC is transitive closure over an n-node chain whose
// edges are listed from the far end: the seed application's depth-first
// walk then derives the whole closure (n(n-1)/2 tuples) in one rule
// application, each edge row's probe of tc reading rows the previous
// edge rows just appended — so the head relation's ID columns
// reallocate many times inside a single block of input rows.
func descendingChainTC(n int) string {
	var b strings.Builder
	for i := n - 1; i >= 1; i-- {
		fmt.Fprintf(&b, "e(%d, %d). ", i, i+1)
	}
	b.WriteString("\ntc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	return b.String()
}

// headColumnGrowth names the kernelPrograms input built by
// descendingChainTC. Only the sequential modes run it: parallel rounds
// never write a scanned relation, so they gain nothing from the shape
// but a naive round per chain link.
const headColumnGrowth = "head column growth"

// kernelPrograms is the equivalence corpus: every engine-level feature
// the kernels implement, plus the fallback shapes, in one list.
var kernelPrograms = []struct {
	name string
	src  string
	goal string
}{
	{"tc", tcSrc, "tc(X, Y)"},
	{"tc bound", tcSrc, "tc(1, Y)"},
	{"cyclic tc", `
e(1, 2). e(2, 3). e(3, 1).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`, "tc(X, Y)"},
	{"samegen", `
up(a, p1). up(b, p1). up(p1, g1). up(p2, g1). up(c, p2).
flat(g1, g1).
dn(Y, X) <- up(X, Y).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
`, "sg(a, Y)"},
	{"arith and comparisons", `
n(1). n(2). n(3). n(4).
double(X, Y) <- n(X), Y = X * 2.
bigpair(X, Y) <- n(X), n(Y), X < Y, Y >= 3.
odd(X) <- n(X), X mod 2 = 1.
`, "bigpair(X, Y)"},
	{"deferred builtin", `
n(1). n(2). n(3).
shift(Y, X) <- Y = X + 10, n(X).
`, "shift(Y, X)"},
	{"negation", `
n(1). n(2). n(3). n(4). m(2). m(4).
onlyn(X) <- n(X), not m(X).
`, "onlyn(X)"},
	{"stratified negation", `
e(1, 2). e(2, 3).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
unreach(X, Y) <- e(X, _ignore1), e(_ignore2, Y), not tc(X, Y).
`, "unreach(X, Y)"},
	{"repeated variable", `
e(1, 1). e(1, 2). e(2, 2). e(2, 3).
loop(X) <- e(X, X).
`, "loop(X)"},
	{"constants in body", `
e(1, 2). e(1, 3). e(2, 3).
fromone(X) <- e(1, X).
`, "fromone(X)"},
	{"fallback complex terms", `
e(a, b). e(b, c).
path(X, Y, cons(X, cons(Y, nil))) <- e(X, Y).
path(X, Z, cons(X, P)) <- e(X, Y), path(Y, Z, P).
`, "path(a, Z, P)"},
	{"mixed fallback and kernel", `
e(1, 2). e(2, 3).
wrap(X, f(X)) <- e(X, _ignore).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`, "tc(X, Y)"},
	{"eq unification fallback", `
q(f(1)). q(f(2)).
unwrap(X) <- q(Y), f(X) = Y.
`, "unwrap(X)"},
	{headColumnGrowth, descendingChainTC(300), "tc(X, Y)"},
}

// TestKernelEquivalence runs every corpus program through
// {generic, batched, batched4} × {Naive, SemiNaive} × {sequential,
// parallel} and requires identical answers everywhere, and identical
// work counters between compiled and generic on the sequential engines.
func TestKernelEquivalence(t *testing.T) {
	for _, p := range kernelPrograms {
		t.Run(p.name, func(t *testing.T) {
			type mode struct {
				name string
				opts Options
			}
			modes := []mode{
				{"generic/seq", Options{DisableKernels: true}},
				{"batched/seq", Options{}},
				// Tiny blocks force the flush-at-capacity path on every
				// program, not just large workloads.
				{"batched4/seq", Options{blockSize: 4}},
				{"generic/par", Options{DisableKernels: true, Parallel: 4}},
				{"batched/par", Options{Parallel: 4}},
				{"batched4/par", Options{Parallel: 4, blockSize: 4}},
			}
			for _, m := range []Method{Naive, SemiNaive} {
				var ref string
				var refEng *Engine
				for i, md := range modes {
					if p.name == headColumnGrowth && md.opts.Parallel > 1 {
						continue
					}
					eng, err := tryRun(p.src, m, md.opts)
					if err != nil {
						t.Fatalf("%v/%s: %v", m, md.name, err)
					}
					got := answers(t, eng, p.goal)
					if i == 0 {
						ref, refEng = got, eng
						continue
					}
					if got != ref {
						t.Errorf("%v/%s: answers diverge\n got %s\nwant %s", m, md.name, got, ref)
					}
					// Counter parity among the sequential engines: the
					// kernels must do the same logical work as the
					// interpreter, probe for probe, at every block size
					// (parallel rounds schedule differently, so only the
					// sequential modes are comparable).
					if md.name == "batched/seq" || md.name == "batched4/seq" {
						cg, cc := refEng.Counters, eng.Counters
						if cg.Lookups != cc.Lookups || cg.Unifications != cc.Unifications ||
							cg.BuiltinCalls != cc.BuiltinCalls || cg.TuplesDerived != cc.TuplesDerived {
							t.Errorf("%v: counters diverge: generic %+v vs compiled %+v", m, cg, cc)
						}
					}
				}
			}
		})
	}
}

// TestKernelErrorParity: runtime errors (division by zero reached
// through a join, unbound head variables, never-evaluable goals) must
// surface identically with kernels on and off.
func TestKernelErrorParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		frag string // required error substring; "" = must succeed
	}{
		{"division by zero", `
n(0). n(1).
inv(X, Y) <- n(X), Y = 10 / X.
`, "division by zero"},
		{"unbound head variable", `
n(1).
p(X, Y) <- n(X).
`, "unbound head variable"},
		{"never evaluable", `
n(1).
p(X) <- n(X), X > Z.
`, "never became evaluable"},
		{"dead branch hides the error", `
n(1). n(2).
p(Y) <- n(X), X > 5, Y = X / 0.
`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			modes := []struct {
				name string
				opts Options
			}{
				{"generic", Options{DisableKernels: true}},
				{"batched", Options{}},
				{"batched4", Options{blockSize: 4}},
			}
			for _, m := range modes {
				_, err := tryRun(c.src, SemiNaive, m.opts)
				if c.frag == "" {
					if err != nil {
						t.Errorf("%s: unexpected error %v", m.name, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), c.frag) {
					t.Errorf("%s: error %v, want substring %q", m.name, err, c.frag)
				}
			}
		})
	}
}
