package main

// Input generators. Every input the servers see is made here from the
// run's seed, and every expected answer comes from the generator's own
// bookkeeping (forest, grove) or from an unoptimized evaluation of the
// generated rules (churn), never from the server under test.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// shuffled returns the lines in a seeded random order: the same facts
// in a different order are the same database, so the order is free
// input the seed may vary.
func shuffled(rng *rand.Rand, lines []string) string {
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "\n") + "\n"
}

// forest is a set of complete same-generation trees: up(child, parent)
// and dn(parent, child) edges, flat(root, root) per tree. A bound query
// sg(<leaf>, Y) answers every leaf of the leaf's tree (all leaves share
// the root's generation), so the expected answer is the tree's leaf set.
type forest struct {
	program string
	leaves  [][]string // per tree; grows as leaves are appended
	attach  [][]string // per tree, the parents of the leaves
	added   int        // leaves appended so far; names never repeat
}

const sgRules = "sg(X, Y) <- flat(X, Y).\nsg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).\n"

func newForest(rng *rand.Rand, trees, depth, fanout int) *forest {
	f := &forest{leaves: make([][]string, trees), attach: make([][]string, trees)}
	var lines []string
	for t := 0; t < trees; t++ {
		name := func(level, i int) string { return fmt.Sprintf("n%d_%d_%d", t, level, i) }
		width := 1
		for level := depth; level > 0; level-- {
			for i := 0; i < width*fanout; i++ {
				child, parent := name(level-1, i), name(level, i/fanout)
				lines = append(lines, fmt.Sprintf("up(%s, %s).", child, parent), fmt.Sprintf("dn(%s, %s).", parent, child))
				if level == 1 {
					f.leaves[t] = append(f.leaves[t], child)
				}
			}
			if level == 1 {
				for i := 0; i < width; i++ {
					f.attach[t] = append(f.attach[t], name(1, i))
				}
			}
			width *= fanout
		}
		lines = append(lines, fmt.Sprintf("flat(%s, %s).", name(depth, 0), name(depth, 0)))
	}
	f.program = sgRules + shuffled(rng, lines)
	return f
}

// pick returns a random tree and one of its leaves.
func (f *forest) pick(rng *rand.Rand) (tree int, leaf string) {
	tree = rng.Intn(len(f.leaves))
	return tree, f.leaves[tree][rng.Intn(len(f.leaves[tree]))]
}

// answer is the expected sorted answer of sg(<any leaf of tree>, Y).
func (f *forest) answer(tree int) []string {
	out := append([]string(nil), f.leaves[tree]...)
	sort.Strings(out)
	return out
}

// appendLeaf attaches a fresh leaf under a random leaf parent and
// returns the two facts that add it.
func (f *forest) appendLeaf(rng *rand.Rand) (facts string, tree int, leaf string) {
	tree = rng.Intn(len(f.leaves))
	parent := f.attach[tree][rng.Intn(len(f.attach[tree]))]
	leaf = fmt.Sprintf("x%d_%d", tree, f.added)
	f.added++
	f.leaves[tree] = append(f.leaves[tree], leaf)
	return fmt.Sprintf("up(%s, %s). dn(%s, %s).", leaf, parent, parent, leaf), tree, leaf
}

// grove is a set of disjoint edge chains under transitive closure. A
// bound query tc(<node>, Y) answers every node after it on its chain.
type grove struct {
	program string
	chains  [][]string // node names per chain; grows as edges are appended
}

const tcRules = "tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n"

func newGrove(rng *rand.Rand, chains, length int) *grove {
	g := &grove{chains: make([][]string, chains)}
	var lines []string
	for c := range g.chains {
		for i := 0; i <= length; i++ {
			g.chains[c] = append(g.chains[c], fmt.Sprintf("g%d_%d", c, i))
		}
		for i := 0; i < length; i++ {
			lines = append(lines, fmt.Sprintf("e(%s, %s).", g.chains[c][i], g.chains[c][i+1]))
		}
	}
	g.program = tcRules + shuffled(rng, lines)
	return g
}

// extend appends n fresh edges to the end of a random chain and returns
// the facts and the chain.
func (g *grove) extend(rng *rand.Rand, n int) (facts string, chain int) {
	chain = rng.Intn(len(g.chains))
	nodes := g.chains[chain]
	var b strings.Builder
	for i := 0; i < n; i++ {
		next := fmt.Sprintf("g%d_%d", chain, len(nodes))
		fmt.Fprintf(&b, "e(%s, %s). ", nodes[len(nodes)-1], next)
		nodes = append(nodes, next)
	}
	g.chains[chain] = nodes
	return strings.TrimSpace(b.String()), chain
}

// pick returns a random non-final node of a chain (the first of the
// chain when chain >= 0 is given, any chain otherwise).
func (g *grove) pick(rng *rand.Rand, chain int) (node string, c, pos int) {
	if chain >= 0 {
		return g.chains[chain][0], chain, 0
	}
	c = rng.Intn(len(g.chains))
	pos = rng.Intn(len(g.chains[c]) - 1)
	return g.chains[c][pos], c, pos
}

// answer is the expected sorted answer of tc(<node at pos>, Y).
func (g *grove) answer(c, pos int) []string {
	out := append([]string(nil), g.chains[c][pos+1:]...)
	sort.Strings(out)
	return out
}

// churn is a wide non-recursive rule base: many six-literal chain or
// star rules over a few shared base relations, so a stream of queries
// over many forms keeps the optimizer busy. Each base relation covers
// every value of the domain at least once; its extra rows land on a few
// hot values, so fanout is skewed the way the cost model has to guess.
type churn struct {
	program string
	pool    [][]string // per form, the constants queries bind
	// oracle holds ans(<form>, <constant>, Y) rules: each form's body
	// with X replaced by one pool constant. Evaluated without
	// optimization it yields every expected answer at once.
	oracle string
}

const (
	churnDomain = 1000
	churnHot    = 40 // extra rows land on values [0, churnHot)
)

func newChurn(rng *rand.Rand, forms, relations, literals, constants int) *churn {
	ch := &churn{}
	var facts []string
	for r := 0; r < relations; r++ {
		rows := 1000 + rng.Intn(3001)
		seen := map[[2]int]bool{}
		add := func(x, y int) {
			if !seen[[2]int{x, y}] {
				seen[[2]int{x, y}] = true
				facts = append(facts, fmt.Sprintf("b%d(%d, %d).", r, x, y))
			}
		}
		for x := 0; x < churnDomain; x++ {
			add(x, rng.Intn(churnDomain))
		}
		for len(seen) < rows {
			add(rng.Intn(churnHot), rng.Intn(churnDomain))
		}
	}
	var rules, oracle strings.Builder
	for i := 0; i < forms; i++ {
		star := rng.Intn(2) == 0
		var lits []string
		for j := 0; j < literals; j++ {
			rel := rng.Intn(relations)
			from, to := fmt.Sprintf("Z%d", j), fmt.Sprintf("Z%d", j+1)
			if star || j == 0 {
				from = "X"
			}
			if j == literals-1 {
				to = "Y"
			}
			lits = append(lits, fmt.Sprintf("b%d(%s, %s)", rel, from, to))
		}
		body := strings.Join(lits, ", ")
		fmt.Fprintf(&rules, "q%d(X, Y) <- %s.\n", i, body)
		// Constants avoid the hot values: a star rule bound to a hot
		// value multiplies the fanout of five relations.
		var pool []string
		for len(pool) < constants {
			c := fmt.Sprint(churnHot + rng.Intn(churnDomain-churnHot))
			if slices.Contains(pool, c) {
				continue
			}
			pool = append(pool, c)
			fmt.Fprintf(&oracle, "ans(%d, %s, Y) <- %s.\n", i, c, strings.ReplaceAll(body, "X", c))
		}
		ch.pool = append(ch.pool, pool)
	}
	base := shuffled(rng, facts)
	ch.program = rules.String() + base
	ch.oracle = oracle.String() + base
	return ch
}
