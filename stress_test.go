package ldl

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// stressSource is a knowledge base with enough structure for every
// evaluation path: linear recursion, stratified negation, arithmetic
// and a couple of independent base relations.
func stressSource() string {
	var b strings.Builder
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, "e(%d, %d).\n", i, i+1)
	}
	b.WriteString("e(5, 1).\n") // a cycle, so tc is dense
	for _, p := range []string{"up(a, p1).", "up(b, p1).", "up(p1, g1).", "dn(g1, q1).", "dn(q1, d).", "flat(g1, g1)."} {
		b.WriteString(p + "\n")
	}
	b.WriteString(`
tc(X, Y) <- e(X, Y).
tc(X, Y) <- e(X, Z), tc(Z, Y).
sg(X, Y) <- flat(X, Y).
sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
`)
	return b.String()
}

// TestSharedDatabaseStress hammers one System from many goroutines at
// once, mixing every public evaluation entry point — optimized Query,
// the unoptimized bottom-up engine (sequential and parallel), and the
// tabled top-down evaluator. All paths read the same base relations,
// including racing to build the same lazy column indexes; run under
// -race this is the concurrency contract test for the store layer.
func TestSharedDatabaseStress(t *testing.T) {
	sys, err := Load(stressSource())
	if err != nil {
		t.Fatal(err)
	}
	// A second System over the same program with materialized views:
	// its arms race incremental view maintenance (concurrent writers)
	// against view-serving reads. The writers insert edges in fresh
	// two-node components disconnected from node 1 and the sg ontology,
	// so every insert does real delta propagation into tc while the
	// reference answers below stay valid throughout.
	msys, err := Load(stressSource(), WithMaterialized())
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers, computed once, sequentially.
	wantTC, _, err := sys.EvaluateUnoptimized("tc(1, Y)")
	if err != nil {
		t.Fatal(err)
	}
	wantSG, err := sys.Query("sg(a, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(wantTC) == 0 || len(wantSG) == 0 {
		t.Fatalf("empty reference answers: tc=%d sg=%d", len(wantTC), len(wantSG))
	}

	const goroutines = 24
	const rounds = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var got [][]string
				var want [][]string
				var err error
				// The arms cover {compiled, generic} × {sequential,
				// parallel} bottom-up plus the optimized, top-down and
				// materialized-view paths, all racing over shared
				// databases; two arms write through the incremental
				// maintenance path while the view arms read.
				switch (g + r) % 10 {
				case 0:
					got, err = sys.Query("sg(a, Y)")
					want = wantSG
				case 1:
					got, _, err = sys.EvaluateUnoptimized("tc(1, Y)")
					want = wantTC
				case 2:
					got, _, err = sys.EvaluateUnoptimized("tc(1, Y)", WithParallel(4))
					want = wantTC
				case 3:
					got, _, err = sys.EvaluateTopDown("tc(1, Y)")
					want = wantTC
				case 4:
					got, _, err = sys.EvaluateUnoptimized("tc(1, Y)", WithCompiledKernels(false))
					want = wantTC
				case 5:
					got, _, err = sys.EvaluateUnoptimized("tc(1, Y)", WithParallel(4), WithCompiledKernels(false))
					want = wantTC
				case 6:
					// Compiled kernels on sg, sequential and parallel
					// (the tiny-block arms live in internal/eval's
					// TestKernelEquivalence).
					got, _, err = sys.EvaluateUnoptimized("sg(a, Y)")
					want = wantSG
				case 7:
					got, _, err = sys.EvaluateUnoptimized("sg(a, Y)", WithParallel(4))
					want = wantSG
				case 8:
					// Serve from the materialized views while other
					// goroutines run incremental maintenance.
					var ok bool
					got, ok, err = msys.AnswersFromViews("tc(1, Y)")
					if err == nil && !ok {
						err = fmt.Errorf("views could not serve tc(1, Y)")
					}
					want = wantTC
				case 9:
					// Write through incremental maintenance (a fresh
					// disconnected edge, then repeats of it — one real
					// delta, then duplicate-batch epochs), and read the
					// views the maintenance just published.
					if _, _, err = msys.InsertFacts(fmt.Sprintf("e(%d, %d).", 1000+10*g, 1001+10*g)); err == nil {
						var ok bool
						got, ok, err = msys.AnswersFromViews("sg(a, Y)")
						if err == nil && !ok {
							err = fmt.Errorf("views could not serve sg(a, Y)")
						}
						want = wantSG
					}
				}
				if err != nil {
					errc <- fmt.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					errc <- fmt.Errorf("goroutine %d round %d: got %v want %v", g, r, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// The maintenance under contention must have stayed on the
	// incremental path (no negation in this program, so a scratch
	// fallback would indicate a lost prior epoch), and the final views
	// must still agree with the reference answers.
	ist := msys.IVMStats()
	if ist.ScratchFallbacks != 0 {
		t.Errorf("materialized stress fell back to scratch %d times", ist.ScratchFallbacks)
	}
	if ist.Epochs < 2 {
		t.Errorf("materialized stress published only %d epochs", ist.Epochs)
	}
	if got, ok, err := msys.AnswersFromViews("tc(1, Y)"); err != nil || !ok || !reflect.DeepEqual(got, wantTC) {
		t.Errorf("final view answers diverged: ok=%v err=%v got %v want %v", ok, err, got, wantTC)
	}
}

// TestParallelExecuteEquivalence checks the public-API contract of
// WithParallel: an optimized plan executed in parallel returns exactly
// the rows of the sequential execution, and Explain output (the plan)
// is unaffected by the option.
func TestParallelExecuteEquivalence(t *testing.T) {
	sys, err := Load(stressSource())
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []string{"sg(a, Y)", "tc(1, Y)", "tc(X, Y)"} {
		seqPlan, err := sys.Optimize(goal)
		if err != nil {
			t.Fatal(err)
		}
		parPlan, err := sys.Optimize(goal, WithParallel(4))
		if err != nil {
			t.Fatal(err)
		}
		if seqPlan.Explain() != parPlan.Explain() {
			t.Errorf("%s: WithParallel changed the plan:\n%s\nvs\n%s", goal, seqPlan.Explain(), parPlan.Explain())
		}
		seq, err := seqPlan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		par, err := parPlan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: parallel rows differ:\n got %v\nwant %v", goal, par, seq)
		}
	}
}
