package main

// The four untraced workloads. Each is a closed loop over at most two
// connections: the protocol is strict request/response per connection
// and the caller waits for every reply.

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ldl"
)

// Input sizes. The forest is about 202k facts with 64-row answers; the
// grove 2000 chains of 20 edges; the churn program 512 forms, four
// times the default 128-plan cache.
const (
	forestTrees, forestDepth, forestFanout = 800, 6, 2
	groveChains, groveLength               = 2000, 20
	churnForms, churnRelations             = 512, 16
	churnLiterals, churnConstants          = 6, 4
	// groveAppend edges per LOAD, groveReads view queries after it.
	groveAppend, groveReads = 2, 4
)

// Log sizes that trigger a checkpoint (write-replicated) or a segment
// flush (ivm-grove). They are small enough that every run of a few
// seconds passes several.
const (
	replCheckpointBytes  = 2048
	groveCheckpointBytes = 1024
)

// genRNG is the generators' random source: derived from the seed but
// apart from the request stream, so inputs do not depend on how many
// requests a run managed to send.
func genRNG(r *run) *rand.Rand { return rand.New(rand.NewSource(r.seed*2654435761 + 1)) }

func sgGoal(leaf string) string { return fmt.Sprintf("sg(%s, Y)", leaf) }

func tcGoal(node string) string { return fmt.Sprintf("tc(%s, Y)", node) }

// readGen draws one read: its goal and the expected answer rows.
type readGen func() (goal string, want []string)

// sgInputs is read-sg's input: the forest and random leaf reads.
func sgInputs(r *run) (string, readGen, error) {
	f := newForest(genRNG(r), forestTrees, forestDepth, forestFanout)
	return f.program, func() (string, []string) {
		tree, leaf := f.pick(r.rng)
		return sgGoal(leaf), rowsFor(leaf, f.answer(tree))
	}, nil
}

// churnInputs is plan-churn's input: the churn program and reads of a
// uniformly random form, answered by the oracle.
func churnInputs(r *run) (string, readGen, error) {
	ch := newChurn(genRNG(r), churnForms, churnRelations, churnLiterals, churnConstants)
	want, err := churnOracle(ch)
	if err != nil {
		return "", nil, err
	}
	return ch.program, func() (string, []string) {
		i := r.rng.Intn(len(ch.pool))
		goal := fmt.Sprintf("q%d(%s, Y)", i, ch.pool[i][r.rng.Intn(len(ch.pool[i]))])
		return goal, want[goal]
	}, nil
}

// churnOracle evaluates every pool query of the churn program once,
// without optimization, and returns the expected rows by goal.
func churnOracle(ch *churn) (map[string][]string, error) {
	sys, err := ldl.Load(ch.oracle)
	if err != nil {
		return nil, fmt.Errorf("oracle load: %w", err)
	}
	rows, _, err := sys.EvaluateUnoptimized("ans(F, C, Y)")
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	ys := map[string][]string{}
	for _, row := range rows {
		goal := fmt.Sprintf("q%s(%s, Y)", row[0], row[1])
		ys[goal] = append(ys[goal], row[2])
	}
	want := map[string][]string{}
	for i, pool := range ch.pool {
		for _, c := range pool {
			goal := fmt.Sprintf("q%d(%s, Y)", i, c)
			want[goal] = rowsFor(c, ys[goal])
		}
	}
	return want, nil
}

// readOnlySetup starts the in-memory server of a read-only workload
// (read-sg, plan-churn) and returns it with the inputs.
func (r *run) readOnlySetup(inputs func(*run) (string, readGen, error)) (string, readGen, *server, *client, error) {
	program, next, err := inputs(r)
	if err != nil {
		return "", nil, nil, nil, err
	}
	prog, err := r.writeFile("program.ldl", program)
	if err != nil {
		return "", nil, nil, nil, err
	}
	srv, c, err := r.setupSingle([]string{"-program", prog}, func(c *client) error {
		goal, want := next()
		return r.query(c, "", goal, 0, want)
	})
	return program, next, srv, c, err
}

// runReadOnly: one connection, checked reads drawn by the inputs.
func runReadOnly(r *run, inputs func(*run) (string, readGen, error)) error {
	_, next, srv, c, err := r.readOnlySetup(inputs)
	if err != nil {
		return err
	}
	defer c.close()
	err = r.timed(func() error {
		goal, want := next()
		r.query(c, "query", goal, 0, want)
		return nil
	})
	if err != nil {
		return err
	}
	r.latencyMetrics("query")
	return r.serverMetrics([]*server{srv}, 0, 0)
}

func runReadSG(r *run) error    { return runReadOnly(r, sgInputs) }
func runPlanChurn(r *run) error { return runReadOnly(r, churnInputs) }

// setupSingle is setup for a one-server workload: args are the server
// flags, first sends the first checked request.
func (r *run) setupSingle(args []string, first func(*client) error) (*server, *client, error) {
	var srv *server
	var c *client
	up := func(int) (err error) {
		if srv, err = r.start(r.name, args...); err != nil {
			return err
		}
		if c, err = dial(srv.addr); err != nil {
			return err
		}
		return first(c)
	}
	down := func() {
		c.close()
		r.stop(srv)
	}
	if err := r.setup(up, down); err != nil {
		return nil, nil, err
	}
	return srv, c, nil
}

// replPair is a durable leader and its in-memory follower, with one
// connection to each.
type replPair struct {
	leader, follower *server
	lc, fc           *client
	reads            int64 // QUERYs sent to the follower
}

// startReplPair boots a leader on a fresh data directory and a
// follower of it, and waits until the follower has caught up with the
// leader's epoch.
func (r *run) startReplPair(prog, dataDir string) (*replPair, error) {
	p := &replPair{}
	var err error
	if p.leader, err = r.start("leader", "-program", prog, "-data-dir", dataDir, "-fsync", "always", "-checkpoint-bytes", strconv.Itoa(replCheckpointBytes)); err != nil {
		return nil, err
	}
	if p.follower, err = r.start("follower", "-program", prog, "-replica-of", p.leader.addr); err != nil {
		return nil, err
	}
	if p.lc, err = dial(p.leader.addr); err != nil {
		return nil, err
	}
	if p.fc, err = dial(p.follower.addr); err != nil {
		return nil, err
	}
	ls, err := p.lc.stats()
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		fs, err := p.fc.stats()
		if err != nil {
			return nil, err
		}
		if statInt(fs, "repl_connected") == 1 && statInt(fs, "repl_applied") >= statInt(ls, "epoch") {
			return p, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower did not reach leader epoch %s: %v", ls["epoch"], fs)
		}
	}
}

func (p *replPair) close(r *run) {
	p.lc.close()
	p.fc.close()
	r.stop(p.follower, p.leader)
}

// discard ends a set-up round's pair; its data directory is not used
// again, so the leader's shutdown checkpoint is skipped.
func (p *replPair) discard(r *run) {
	p.lc.close()
	p.fc.close()
	r.kill(p.follower, p.leader)
}

// checkReadsServed proves the follower, not the leader, answered every
// read: the follower's query count equals the reads sent to it, and the
// leader's is 0.
func (r *run) checkReadsServed(p *replPair) error {
	fs, err := p.fc.stats()
	if err != nil {
		return err
	}
	ls, err := p.lc.stats()
	if err != nil {
		return err
	}
	if fq, lq := statInt(fs, "queries"), statInt(ls, "queries"); fq != p.reads || lq != 0 {
		err = fmt.Errorf("follower served %d of %d reads, leader served %d", fq, p.reads, lq)
	}
	r.check(err)
	return nil
}

// replOp is one write-replicated session step: LOAD a fresh leaf pair
// to the leader, then read it back from the follower with wait=<epoch>.
// It returns the LOAD's payload bytes.
func (r *run) replOp(p *replPair, f *forest) int64 {
	facts, tree, leaf := f.appendLeaf(r.rng)
	t0 := time.Now()
	epoch, err := r.load(p.lc, facts)
	if err != nil {
		return int64(len(facts))
	}
	p.reads++
	if err := r.query(p.fc, "query", sgGoal(leaf), epoch, rowsFor(leaf, f.answer(tree))); err == nil {
		r.lat["visible"] = append(r.lat["visible"], time.Since(t0))
	}
	return int64(len(facts))
}

// runWriteReplicated: one session over two connections, writes to a
// durable leader and reads from its follower.
func runWriteReplicated(r *run) error {
	f := newForest(genRNG(r), forestTrees, forestDepth, forestFanout)
	prog, err := r.writeFile("forest.ldl", f.program)
	if err != nil {
		return err
	}
	var p *replPair
	up := func(round int) (err error) {
		if p, err = r.startReplPair(prog, r.path(fmt.Sprintf("leader-data-%d", round))); err != nil {
			return err
		}
		tree, leaf := f.pick(r.rng)
		p.reads++
		return r.query(p.fc, "", sgGoal(leaf), 0, rowsFor(leaf, f.answer(tree)))
	}
	if err := r.setup(up, func() { p.discard(r) }); err != nil {
		return err
	}
	defer p.close(r)
	servers := []*server{p.leader, p.follower}
	before, err := written(servers)
	if err != nil {
		return err
	}
	ls, err := p.lc.stats()
	if err != nil {
		return err
	}
	var payload, loads, checkpoints int64
	lastCkpt := ls["wal_last_checkpoint"]
	err = r.timed(func() error {
		payload += r.replOp(p, f)
		if loads++; loads%8 == 0 {
			ls, err := p.lc.stats()
			if err != nil {
				return err
			}
			if c := ls["wal_last_checkpoint"]; c != lastCkpt {
				checkpoints++
				lastCkpt = c
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.latencyMetrics("query")
	r.latencyMetrics("load")
	r.latencyMetrics("visible")
	r.set("checkpoints", "count", float64(checkpoints))
	if err := r.checkReadsServed(p); err != nil {
		return err
	}
	return r.serverMetrics(servers, before, payload)
}

// groveArgs are the flags of an ivm-grove server: segment storage,
// fsync'd log, incrementally maintained views.
func groveArgs(prog, dir string) []string {
	return []string{"-program", prog, "-storage-dir", dir, "-fsync", "always", "-materialize", "incremental", "-checkpoint-bytes", strconv.Itoa(groveCheckpointBytes)}
}

// prepareGrove boots a server on a fresh storage directory and shuts it
// down, which flushes the whole base to segments; later boots open the
// segments instead of loading the program's facts.
func (r *run) prepareGrove(prog, dir string) error {
	srv, err := r.start("grove-prep", groveArgs(prog, dir)...)
	if err != nil {
		return err
	}
	r.stop(srv)
	return nil
}

// groveOp is one ivm-grove step: LOAD fresh edges onto a chain, then
// read the views: that chain from its first node, then random nodes.
func (r *run) groveOp(c *client, g *grove) int64 {
	facts, chain := g.extend(r.rng, groveAppend)
	if _, err := r.load(c, facts); err != nil {
		return int64(len(facts))
	}
	for i := 0; i < groveReads; i++ {
		if i > 0 {
			chain = -1
		}
		node, ch, pos := g.pick(r.rng, chain)
		r.query(c, "query", tcGoal(node), 0, rowsFor(node, g.answer(ch, pos)))
	}
	return int64(len(facts))
}

// groveSetup flushes a fresh grove to segments, then boots the
// measured server from them.
func (r *run) groveSetup() (*grove, string, *server, *client, error) {
	g := newGrove(genRNG(r), groveChains, groveLength)
	prog, err := r.writeFile("grove.ldl", g.program)
	if err != nil {
		return nil, "", nil, nil, err
	}
	dir := r.path("grove-store")
	if err := r.prepareGrove(prog, dir); err != nil {
		return nil, "", nil, nil, err
	}
	srv, c, err := r.setupSingle(groveArgs(prog, dir), func(c *client) error {
		node, ch, pos := g.pick(r.rng, -1)
		return r.query(c, "", tcGoal(node), 0, rowsFor(node, g.answer(ch, pos)))
	})
	return g, dir, srv, c, err
}

// runIVMGrove: one connection, appends and view reads against a
// segment-backed materialized server booted from flushed segments.
func runIVMGrove(r *run) error {
	g, _, srv, c, err := r.groveSetup()
	if err != nil {
		return err
	}
	defer c.close()
	servers := []*server{srv}
	before, err := written(servers)
	if err != nil {
		return err
	}
	var payload int64
	if err := r.timed(func() error { payload += r.groveOp(c, g); return nil }); err != nil {
		return err
	}
	r.latencyMetrics("query")
	r.latencyMetrics("load")
	st, err := c.stats()
	if err != nil {
		return err
	}
	r.set("flushes", "count", float64(statInt(st, "seg_flushes")))
	r.set("ivm_scratch_fallbacks", "count", float64(statInt(st, "ivm_scratch_fallbacks")))
	if n, _ := strconv.Atoi(st["seg_segments"]); n == 0 {
		r.check(fmt.Errorf("booted with no segments"))
	}
	return r.serverMetrics(servers, before, payload)
}
