package ldl_test

// The benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index (the tables cmd/ldlbench prints in full), plus
// micro-benchmarks for the engine's hot paths. Experiment benchmarks
// report their headline numbers via b.ReportMetric so `go test -bench`
// output records the reproduced results alongside the timings.

import (
	"fmt"
	"strings"
	"testing"

	"ldl"
	"ldl/internal/experiments"
	"ldl/internal/workload"
)

func reportTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	for name, v := range t.Metrics {
		b.ReportMetric(v, name)
	}
}

// BenchmarkE1KBZQuality — §7.1/[Vil 87]: KBZ vs exhaustive on random
// queries and catalog states.
func BenchmarkE1KBZQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E1KBZQuality(20, int64(i+1))
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE2AnnealQuality — §7.1: simulated annealing quality vs probe
// budget.
func BenchmarkE2AnnealQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E2AnnealQuality(10, int64(i+1))
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE3StrategyScaling — §7.2: per-strategy optimize-time scaling.
func BenchmarkE3StrategyScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E3StrategyScaling()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE4QuerySpecific — §2: query-form-specific compilation.
func BenchmarkE4QuerySpecific(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E4QuerySpecific()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE5RecursiveMethods — §7.3: naive/seminaive/magic/counting.
func BenchmarkE5RecursiveMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E5RecursiveMethods()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE6Adornments — §7.3: c-permutation enumeration for sg.
func BenchmarkE6Adornments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E6Adornments()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE7Safety — §8: compile-time safety verdicts.
func BenchmarkE7Safety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E7Safety()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE8MatPipe — §5 MP: materialize/pipeline crossover.
func BenchmarkE8MatPipe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E8MatPipe()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE9PushSelect — §7.2: pushing selections through layers.
func BenchmarkE9PushSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E9PushSelect()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE10Memoization — Fig 7-1: binding-indexed memoization.
func BenchmarkE10Memoization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E10Memoization()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkE11BottomLine — total wall time (optimize + execute) vs
// unoptimized evaluation: the deal the paper's architecture offers.
func BenchmarkE11BottomLine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E11BottomLine()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkA1MagicOverheadAblation — cost-constant ablation: the
// recursive-method decision must flip when bookkeeping dominates.
func BenchmarkA1MagicOverheadAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.A1MagicOverhead()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkA2MemoAblation — optimizer speedup from Figure 7-1's memo.
func BenchmarkA2MemoAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.A2MemoAblation()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// BenchmarkA3AccessPathAblation — EL method mix vs probe price.
func BenchmarkA3AccessPathAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.A3AccessPathCosts()
		if i == 0 {
			reportTable(b, t)
		}
	}
}

// ---- micro-benchmarks: engine and optimizer hot paths ---------------

// BenchmarkOptimizeSG measures one full optimization of the bound sg
// query form per strategy.
func BenchmarkOptimizeSG(b *testing.B) {
	src := workload.SameGen(workload.SameGenSpec{Depth: 6, Fanout: 2})
	sys, err := ldl.Load(src)
	if err != nil {
		b.Fatal(err)
	}
	goal := fmt.Sprintf("sg(%s, Y)", workload.SameGenLeaf(workload.SameGenSpec{Depth: 6, Fanout: 2}, 0))
	for _, st := range []ldl.Strategy{ldl.StrategyExhaustive, ldl.StrategyDP, ldl.StrategyKBZ, ldl.StrategyAnneal} {
		b.Run(string(st), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := sys.Optimize(goal, ldl.WithStrategy(st), ldl.WithSeed(int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				if !p.Safe() {
					b.Fatal(p.Reason())
				}
			}
		})
	}
}

// BenchmarkExecuteSGBound measures optimized end-to-end execution of
// the bound sg query.
func BenchmarkExecuteSGBound(b *testing.B) {
	spec := workload.SameGenSpec{Depth: 8, Fanout: 2}
	sys, err := ldl.Load(workload.SameGen(spec))
	if err != nil {
		b.Fatal(err)
	}
	goal := fmt.Sprintf("sg(%s, Y)", workload.SameGenLeaf(spec, 0))
	p, err := sys.Optimize(goal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemiNaiveTC measures the plain semi-naive engine on
// transitive closure.
func BenchmarkSemiNaiveTC(b *testing.B) {
	for _, n := range []int{50, 100} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			sys, err := ldl.Load(workload.TCChain(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.EvaluateUnoptimized("tc(X, Y)"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSemiNaiveTCParallel measures the parallel stratified
// fixpoint on the same transitive-closure workloads for worker counts
// 1 (sequential reference), 2 and 4 — the single- vs multi-core
// speedup record for BENCH_PR2.json.
func BenchmarkSemiNaiveTCParallel(b *testing.B) {
	for _, n := range []int{100, 200} {
		sys, err := ldl.Load(workload.TCChain(n))
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("chain%d/workers%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := sys.EvaluateUnoptimized("tc(X, Y)", ldl.WithParallel(workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// complexTermsChain generates the structured-term benchmark workload:
// a chain of n edges whose transitive paths are materialized as
// cons-lists, so every derived tuple constructs a compound head term
// and every recursive probe decomposes one. This is the workload the
// build-template/column-pattern kernel steps exist for.
func complexTermsChain(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "e(n%d, n%d).\n", i, i+1)
	}
	b.WriteString("path(X, Y, cons(X, cons(Y, nil))) <- e(X, Y).\n")
	b.WriteString("path(X, Z, cons(X, P)) <- e(X, Y), path(Y, Z, P).\n")
	return b.String()
}

// BenchmarkFixpointKernels is the acceptance suite for the compiled
// positional join kernels: the same fixpoint workloads run through the
// generic substitution-based interpreter (WithCompiledKernels(false))
// and the compiled block-at-a-time executor (default). The headline
// numbers — allocs/op on transitive closure, wall-clock on
// same-generation and on structured-term path construction — are
// recorded in BENCH_PR7.json.
func BenchmarkFixpointKernels(b *testing.B) {
	sgSpec := workload.SameGenSpec{Depth: 8, Fanout: 2}
	workloads := []struct {
		name string
		src  string
		goal string
	}{
		{"tc/chain100", workload.TCChain(100), "tc(X, Y)"},
		{"samegen/d8f2", workload.SameGen(sgSpec), "sg(X, Y)"},
		{"complexterms/chain40", complexTermsChain(40), "path(X, Y, P)"},
	}
	modes := []struct {
		name string
		opts []ldl.Option
	}{
		{"generic", []ldl.Option{ldl.WithCompiledKernels(false)}},
		{"batched", nil},
	}
	for _, w := range workloads {
		sys, err := ldl.Load(w.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range modes {
			b.Run(w.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := sys.EvaluateUnoptimized(w.goal, m.opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParallelStrata measures clique-level parallelism: k
// independent transitive closures (disjoint strata in the follows
// order) that the parallel scheduler can run concurrently, joined by a
// top predicate so a single query reaches them all. A linear chain TC
// has one semi-naive variant per round, so this — not chain TC — is
// where the scheduler's concurrency shows.
func BenchmarkParallelStrata(b *testing.B) {
	const k, n = 4, 80
	var src strings.Builder
	for c := 0; c < k; c++ {
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&src, "e%d(%d, %d).\n", c, i, i+1)
		}
		fmt.Fprintf(&src, "tc%d(X, Y) <- e%d(X, Y).\n", c, c)
		fmt.Fprintf(&src, "tc%d(X, Y) <- e%d(X, Z), tc%d(Z, Y).\n", c, c, c)
		fmt.Fprintf(&src, "reach(X) <- tc%d(1, X).\n", c)
	}
	sys, err := ldl.Load(src.String())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.EvaluateUnoptimized("reach(X)", ldl.WithParallel(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParse measures parser throughput on a generated program.
func BenchmarkParse(b *testing.B) {
	src := workload.SameGen(workload.SameGenSpec{Depth: 8, Fanout: 2})
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := ldl.Load(src); err != nil {
			b.Fatal(err)
		}
	}
}

// tcGrove produces a transitive-closure program over `chains` disjoint
// chains of n edges each: chains*n base facts whose fixpoint holds
// chains*n*(n+1)/2 tc tuples. Disjoint components keep the fixpoint
// big while a handful of inserted edges touches almost none of it —
// the shape incremental maintenance exists for.
func tcGrove(chains, n int) string {
	var b strings.Builder
	b.WriteString("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n")
	for c := 0; c < chains; c++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "e(c%dn%d, c%dn%d).\n", c, i, c, i+1)
		}
	}
	return b.String()
}

// BenchmarkIncrementalInsert is the acceptance benchmark for
// cross-epoch incremental view maintenance (BENCH_PR8.json): a
// 100,000-edge transitive-closure base (5000 disjoint chains × 20
// edges, ≈1.05M derived tc tuples), then per iteration one
// InsertFacts batch of 10 fresh edges followed by a bound re-query
// served from the views. The incremental arm seeds the next fixpoint
// with exactly the delta; the scratch arm (the test-only
// WithMaterializedScratch) recomputes the full fixpoint every epoch —
// the before/after pair the ≥5x floor is measured over.
func BenchmarkIncrementalInsert(b *testing.B) {
	const chains, n = 5000, 20
	src := tcGrove(chains, n)
	for _, mode := range []struct {
		name string
		opt  ldl.SystemOption
	}{
		{"incremental", ldl.WithMaterialized()},
		{"scratch", ldl.WithMaterializedScratch()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := ldl.Load(src, mode.opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			next := 1_000_000
			for i := 0; i < b.N; i++ {
				var batch strings.Builder
				for j := 0; j < 5; j++ {
					fmt.Fprintf(&batch, "e(x%d, x%d).\ne(x%d, x%d).\n", next, next+1, next+1, next+2)
					next += 3
				}
				if _, _, err := sys.InsertFacts(batch.String()); err != nil {
					b.Fatal(err)
				}
				rows, ok, err := sys.AnswersFromViews("tc(c0n0, Y)")
				if err != nil || !ok {
					b.Fatalf("view query failed: ok=%v err=%v", ok, err)
				}
				if len(rows) != n {
					b.Fatalf("bound re-query returned %d rows, want %d", len(rows), n)
				}
			}
			if st := sys.IVMStats(); mode.name == "incremental" && st.ScratchFallbacks != 0 {
				b.Fatalf("incremental arm fell back to scratch %d times", st.ScratchFallbacks)
			}
		})
	}
}
