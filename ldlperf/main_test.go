package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"

	"ldl"
)

func TestSeedGivesSameInputs(t *testing.T) {
	rng := func(seed int64) *rand.Rand { return genRNG(&run{seed: seed}) }
	if a, b := newForest(rng(7), 20, 4, 2), newForest(rng(7), 20, 4, 2); a.program != b.program {
		t.Error("forest differs for the same seed")
	}
	if a, b := newGrove(rng(7), 50, 5), newGrove(rng(7), 50, 5); a.program != b.program {
		t.Error("grove differs for the same seed")
	}
	a, b := newChurn(rng(7), 16, 4, 6, 2), newChurn(rng(7), 16, 4, 6, 2)
	if a.program != b.program || a.oracle != b.oracle {
		t.Error("churn program differs for the same seed")
	}
	if c := newChurn(rng(8), 16, 4, 6, 2); c.program == a.program {
		t.Error("churn program ignores the seed")
	}
	// The request streams too: the same seed draws the same appends.
	f1, f2 := newForest(rng(7), 20, 4, 2), newForest(rng(7), 20, 4, 2)
	r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		x, _, _ := f1.appendLeaf(r1)
		y, _, _ := f2.appendLeaf(r2)
		if x != y {
			t.Fatalf("append %d: %q vs %q", i, x, y)
		}
	}
}

// answers runs goal through the optimizer and the prepared-plan path
// and renders rows as the protocol does.
func answers(t *testing.T, sys *ldl.System, goal string) []string {
	t.Helper()
	rows, err := sys.Query(goal)
	if err != nil {
		t.Fatalf("%s: %v", goal, err)
	}
	return joinRows(rows)
}

func TestForestAndGroveOraclesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := newForest(rng, 3, 3, 2)
	sys, err := ldl.Load(f.program)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		facts, _, _ := f.appendLeaf(rng)
		if _, _, err := sys.InsertFacts(facts); err != nil {
			t.Fatal(err)
		}
		for tree := range f.leaves {
			for _, leaf := range f.leaves[tree] {
				if err := sameRows(sgGoal(leaf), answers(t, sys, sgGoal(leaf)), rowsFor(leaf, f.answer(tree))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	g := newGrove(rng, 4, 3)
	if sys, err = ldl.Load(g.program); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		facts, _ := g.extend(rng, 2)
		if _, _, err := sys.InsertFacts(facts); err != nil {
			t.Fatal(err)
		}
		for c := range g.chains {
			for pos := 0; pos < len(g.chains[c])-1; pos++ {
				node := g.chains[c][pos]
				if err := sameRows(tcGoal(node), answers(t, sys, tcGoal(node)), rowsFor(node, g.answer(c, pos))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestChurnOracleAgrees(t *testing.T) {
	ch := newChurn(rand.New(rand.NewSource(5)), 12, 4, 6, 2)
	want, err := churnOracle(ch)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ldl.Load(ch.program)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 12*2 {
		t.Fatalf("oracle has %d goals, want 24", len(want))
	}
	for goal, rows := range want {
		if len(rows) == 0 {
			t.Errorf("%s: empty answer; every pool constant should reach a row", goal)
		}
		if err := sameRows(goal, answers(t, sys, goal), rows); err != nil {
			t.Error(err)
		}
		// The tabled top-down evaluator answers the original rules
		// independently of both the oracle's rewrite and the optimizer.
		td, _, err := sys.EvaluateTopDown(goal)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameRows(goal, joinRows(td), rows); err != nil {
			t.Errorf("top-down on the original rules: %v", err)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name+": "+w.why)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads:\n json %q\n code %q", names, ours)
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var a, b []metricDef
		for _, m := range c.spec {
			a = append(a, metricDef{m.Name, m.Unit})
		}
		b = c.defs
		if !slices.Equal(a, b) {
			t.Errorf("%s:\n json %v\n code %v", c.what, a, b)
		}
	}
}
