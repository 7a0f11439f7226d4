package eval

import (
	"strings"
	"testing"

	"ldl/internal/parser"
	"ldl/internal/store"
)

// runContinuation evaluates src from scratch, then extends the base
// with extra facts and continues the fixpoint incrementally from the
// first run's derived relations. It returns the continued engine, the
// continuation stats, and a scratch engine over the extended program
// for comparison.
func runContinuation(t *testing.T, src, extra string, opts Options) (*Engine, IncrementalStats, *Engine) {
	t.Helper()
	prog1, _, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	db1 := store.NewDatabase()
	if err := db1.LoadFacts(prog1); err != nil {
		t.Fatal(err)
	}
	e1, err := New(prog1, db1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	prior := map[string]*store.Relation{}
	for _, tag := range e1.DerivedTags() {
		prior[tag] = e1.RelationFor(tag)
	}

	prog2, _, err := parser.ParseProgram(src + extra)
	if err != nil {
		t.Fatal(err)
	}
	db2 := store.NewDatabase()
	if err := db2.LoadFacts(prog2); err != nil {
		t.Fatal(err)
	}
	baseDeltas := map[string]*store.Relation{}
	for _, tag := range db2.Tags() {
		nr := db2.Relation(tag)
		old := 0
		if or := db1.Relation(tag); or != nil {
			old = or.Len()
		}
		if nr.Len() > old {
			baseDeltas[tag] = nr.DeltaSince(old)
		}
	}

	inc, err := New(prog2, db2, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := inc.RunIncremental(prior, baseDeltas)
	if err != nil {
		t.Fatal(err)
	}

	scratch, err := New(prog2, store.NewDatabase(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.DB.LoadFacts(prog2); err != nil {
		t.Fatal(err)
	}
	if err := scratch.Run(); err != nil {
		t.Fatal(err)
	}
	return inc, st, scratch
}

func sortedString(r *store.Relation) string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, tup := range r.Sorted() {
		b.WriteString(tup.String())
		b.WriteByte(' ')
	}
	return b.String()
}

// assertSameDerived checks every derived relation of the continued
// engine matches the scratch engine's, as sorted tuple sets.
func assertSameDerived(t *testing.T, inc, scratch *Engine) {
	t.Helper()
	for _, tag := range scratch.DerivedTags() {
		got := sortedString(inc.RelationFor(tag))
		want := sortedString(scratch.RelationFor(tag))
		if got != want {
			t.Errorf("%s: incremental %s != scratch %s", tag, got, want)
		}
	}
}

var continuationModes = []struct {
	name string
	opts Options
}{
	{"seq", Options{}},
	{"seq-generic", Options{DisableKernels: true}},
	{"seq-batched", Options{blockSize: 4}},
	{"par", Options{Parallel: 4}},
	{"par-batched", Options{Parallel: 4, blockSize: 4}},
}

func TestIncrementalTCMatchesScratch(t *testing.T) {
	src := `
e(1, 2). e(2, 3). e(3, 4). e(10, 11). e(11, 12).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`
	extra := `e(4, 5). e(12, 13). e(5, 1).`
	for _, m := range continuationModes {
		t.Run(m.name, func(t *testing.T) {
			inc, st, scratch := runContinuation(t, src, extra, m.opts)
			assertSameDerived(t, inc, scratch)
			if st.CliquesIncremental != 1 || st.CliquesScratch != 0 {
				t.Errorf("stats: %+v, want 1 incremental clique and no scratch", st)
			}
			if st.DeltaDerived == 0 {
				t.Error("no derived delta recorded despite new reachability")
			}
		})
	}
}

func TestIncrementalUnchangedCliqueShares(t *testing.T) {
	// Two independent cliques over disjoint bases: a delta on e must not
	// touch the clique over f.
	src := `
e(1, 2). e(2, 3).
f(7, 8). f(8, 9).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
fc(X, Y) <- f(X, Y).
fc(X, Y) <- f(X, Z), fc(Z, Y).
`
	inc, st, scratch := runContinuation(t, src, `e(3, 4).`, Options{})
	assertSameDerived(t, inc, scratch)
	if st.CliquesShared != 1 || st.CliquesIncremental != 1 {
		t.Errorf("stats: %+v, want 1 shared + 1 incremental", st)
	}
}

func TestIncrementalNoopDelta(t *testing.T) {
	src := `
e(1, 2). e(2, 3).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
`
	inc, st, scratch := runContinuation(t, src, ``, Options{})
	assertSameDerived(t, inc, scratch)
	if st.CliquesShared != 1 || st.CliquesIncremental != 0 || st.CliquesScratch != 0 {
		t.Errorf("stats: %+v, want everything shared", st)
	}
}

func TestIncrementalNegationFallsBack(t *testing.T) {
	// unreach reads tc through negation; a delta on e changes tc, so the
	// unreach stratum must recompute from scratch — new edges RETRACT
	// unreach tuples, which no insert-only delta can express.
	src := `
node(1). node(2). node(3).
e(1, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
unreach(X, Y) <- node(X), node(Y), not tc(X, Y).
`
	for _, m := range continuationModes {
		t.Run(m.name, func(t *testing.T) {
			inc, st, scratch := runContinuation(t, src, `e(2, 3).`, m.opts)
			assertSameDerived(t, inc, scratch)
			if st.CliquesScratch == 0 {
				t.Errorf("stats: %+v, want a scratch fallback for the negation stratum", st)
			}
			// tc itself is monotone and must have continued incrementally.
			if st.CliquesIncremental == 0 {
				t.Errorf("stats: %+v, want tc continued incrementally", st)
			}
			if got := sortedString(inc.RelationFor("unreach/2")); strings.Contains(got, "(1, 3)") {
				t.Errorf("stale unreach tuple survived: %s", got)
			}
		})
	}
}

func TestIncrementalNegationUnchangedStratumStaysIncremental(t *testing.T) {
	// The negation reads base b, which does NOT change; only e changes.
	// The ok stratum reads node (unchanged) and b (unchanged) — it must
	// be shared, while tc continues incrementally.
	src := `
node(1). node(2).
b(2).
e(1, 2).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
ok(X) <- node(X), not b(X).
`
	inc, st, scratch := runContinuation(t, src, `e(2, 3).`, Options{})
	assertSameDerived(t, inc, scratch)
	if st.CliquesScratch != 0 {
		t.Errorf("stats: %+v, want no scratch fallback when the negated input is unchanged", st)
	}
	if st.CliquesShared == 0 {
		t.Errorf("stats: %+v, want the ok stratum shared", st)
	}
}

func TestIncrementalPositiveChangeOnlyKeepsNegationIncremental(t *testing.T) {
	// unreach negates tc, but only node (a positive input) changes —
	// the negated input is untouched, so the stratum stays incremental:
	// new node 4 only ADDS unreach pairs.
	src := `
node(1). node(2). node(3).
e(1, 2). e(2, 3).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
unreach(X, Y) <- node(X), node(Y), not tc(X, Y).
big(X) <- unreach(X, Y).
`
	inc, st, scratch := runContinuation(t, src, `node(4).`, Options{})
	assertSameDerived(t, inc, scratch)
	if st.CliquesScratch != 0 {
		t.Errorf("stats: %+v, want no scratch when the negated input is unchanged", st)
	}
}

func TestIncrementalDownstreamOfFallbackContinues(t *testing.T) {
	// acyclic negates tc, and tc changes → acyclic recomputes from
	// scratch. The new edge creates no cycle, so the recomputed acyclic
	// grows monotonically; big, downstream through a positive literal,
	// continues incrementally from the diff instead of recomputing.
	src := `
node(1). node(2). node(3).
e(1, 2). e(2, 3).
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
acyclic(X) <- node(X), not tc(X, X).
big(X) <- acyclic(X).
`
	inc, st, scratch := runContinuation(t, src, `node(4). e(3, 4).`, Options{})
	assertSameDerived(t, inc, scratch)
	if st.CliquesScratch != 1 {
		t.Errorf("stats: %+v, want exactly the acyclic stratum scratch", st)
	}
	if st.CliquesIncremental != 2 {
		t.Errorf("stats: %+v, want tc and big continued incrementally", st)
	}
}

func TestIncrementalMutualRecursion(t *testing.T) {
	src := `
flat(1, 2). up(2, 3). dn(3, 4).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, Z), sg(Z, W), dn(W, Y).
`
	for _, m := range continuationModes {
		t.Run(m.name, func(t *testing.T) {
			inc, _, scratch := runContinuation(t, src, `flat(3, 3). up(1, 10). dn(10, 9). flat(10, 10).`, m.opts)
			assertSameDerived(t, inc, scratch)
		})
	}
}

func TestIncrementalRunTwiceRejected(t *testing.T) {
	prog, _, err := parser.ParseProgram(`e(1, 2). tc(X, Y) <- e(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	e, err := New(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIncremental(nil, nil); err == nil {
		t.Fatal("RunIncremental after Run should be rejected")
	}
}
