package main

// The traced runs. A traced run has two halves. The first replays the
// workload over TCP against real servers and measures the protocol
// layer (PING round trips, response bytes). The second replays the
// workload in this process against the library, with a span around
// every call into a layer's public API (service, core, eval, the ldl
// write path, WAL, segment, IVM, replication), and derives the
// per-layer metrics from those spans and from the layers' own counters.
// Its steps alternate with untraced ones that make only the service
// calls the workload makes, so what tracing costs shows as
// trace.overhead_pct. Spans inside the program are not recorded: every
// span starts and ends in this file.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ldl"
	"ldl/internal/repl"
	"ldl/internal/service"
	"ldl/internal/wal"
)

// span is one timed call into a layer. Spans of one workload step share
// a request id; parent is the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The replication
// follower's apply hook records from its own goroutine, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return int64(len(t.spans))
}

func (t *tracer) end(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// durations are the durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// begin opens a span under the current step's root; 0 when untraced.
func (r *run) begin(name string) int64 {
	if r.tr == nil {
		return 0
	}
	return r.tr.begin(name, r.root, r.req)
}

func (r *run) end(id int64) {
	if id != 0 {
		r.tr.end(id)
	}
}

// step runs one workload step as a traced request: a fresh request id
// and a root span the layer spans hang under.
func (r *run) step(f func()) {
	r.req++
	r.root = r.tr.begin("step", 0, r.req)
	f()
	r.tr.end(r.root)
	r.root = 0
}

// finishTrace writes the span file and records the span count.
func (r *run) finishTrace() error {
	dir := filepath.Join(r.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
	if err := r.tr.write(path); err != nil {
		return err
	}
	r.set("trace.spans", "count", float64(len(r.tr.spans)))
	r.note("spans written to %s", path)
	return nil
}

// tcpTraced is the first half: for half the run's seconds it runs op
// over TCP as traced steps and sends a PING on the workload connection
// after every fourth.
func (r *run) tcpTraced(c *client, op func()) error {
	r.tr = &tracer{t0: time.Now()}
	steps := 0
	err := r.loop(r.seconds/2, func() error {
		r.step(op)
		if steps++; steps%4 == 0 {
			sp := r.tr.begin("ldlserver.PING", 0, r.req)
			_, _, err := c.do("PING")
			r.tr.end(sp)
			r.check(err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("ldlserver.ping_rtt_p50_us", "us", us(percentile(r.tr.durations("ldlserver.PING"), 50)))
	r.set("ldlserver.resp_bytes_per_query", "bytes", float64(r.respBytes)/float64(max(r.respQueries, 1)))
	return nil
}

// stack is the in-process half: the layers called directly, reads on
// one System and writes on another (the same one except for
// write-replicated, where reads go to the follower).
type stack struct {
	r          *run
	rsys, wsys *ldl.System
	rsvc, wsvc *service.Service
	prepared   map[string]*ldl.Prepared

	// queries and loads count every step's; the traced ones only feed
	// the execution counters and the insert allocations.
	queries, loads                          int64
	tracedQueries, viewQueries, tracedLoads int64
	directLoads                             int64
	rows, derived, lookups, iterations      int64
	blocks, fallbacks                       int64
	planCost                                float64
	walBytes                                []int64
	allocBytes, allocs                      uint64
	checkpoints                             int64  // by the System's own policy
	lastCheckpoint                          uint64 // the newest one seen
	ivm0                                    ldl.IVMStats
	seg0                                    ldl.StorageStats
}

func newStack(r *run, rsys *ldl.System, rsvc *service.Service, wsys *ldl.System, wsvc *service.Service) *stack {
	return &stack{r: r, rsys: rsys, rsvc: rsvc, wsys: wsys, wsvc: wsvc, prepared: map[string]*ldl.Prepared{},
		lastCheckpoint: wsys.Durability().LastCheckpoint, ivm0: wsys.IVMStats(), seg0: wsys.StorageStats()}
}

// query answers goal through the service. In a traced step it then
// repeats the layer calls the service made, each under its own span:
// the view probe for a materialized answer, otherwise Prepare and
// Optimize when the service missed its plan cache, and the prepared
// execution.
func (s *stack) query(goal string, want []string) {
	r := s.r
	s.queries++
	sp := r.begin("service.Query")
	resp, err := s.rsvc.Query(context.Background(), goal)
	r.end(sp)
	if err == nil {
		err = sameRows(goal, joinRows(resp.Rows), want)
	}
	r.check(err)
	if err != nil || r.tr == nil {
		return
	}
	s.tracedQueries++
	if resp.FromViews {
		s.viewQueries++
		sp := r.begin("ivm.AnswersFromViews")
		_, _, err := s.rsys.AnswersFromViews(goal)
		r.end(sp)
		r.check(err)
		return
	}
	es := resp.Stats
	s.rows += int64(len(resp.Rows))
	s.derived += int64(es.TuplesDerived)
	s.lookups += es.Lookups
	s.iterations += int64(es.Iterations)
	s.blocks += es.Blocks
	s.fallbacks += int64(es.KernelFallbacks)
	key, err := ldl.QueryForm(goal)
	if err != nil {
		r.check(err)
		return
	}
	p := s.prepared[key]
	if !resp.CacheHit || p == nil {
		sp := r.begin("core.Prepare")
		p, err = s.rsys.Prepare(goal)
		r.end(sp)
		if err != nil {
			r.check(err)
			return
		}
		s.planCost += p.Cost()
		s.prepared[key] = p
		sp = r.begin("core.Optimize")
		_, err = s.rsys.Optimize(goal)
		r.end(sp)
		if err != nil {
			r.check(err)
			return
		}
	}
	sp = r.begin("eval.ExecuteStats")
	_, _, err = p.ExecuteStats(goal)
	r.end(sp)
	if err != nil {
		r.check(err)
	}
}

// load applies facts on the write side through the service. Traced
// loads alternate between the service (service.Load) and the System
// itself (ldl.InsertFacts, with the allocations it makes), and record
// the log bytes they appended. Every load notes whether the System's
// checkpoint policy has taken a checkpoint since the last one.
func (s *stack) load(facts string, want int) {
	r := s.r
	s.loads++
	defer s.noteCheckpoint()
	if r.tr == nil {
		added, _, err := s.wsvc.Load(context.Background(), facts)
		if err == nil && added != want {
			err = fmt.Errorf("load %s: added %d, want %d", facts, added, want)
		}
		r.check(err)
		return
	}
	s.tracedLoads++
	wal0 := s.wsys.Durability().SegmentBytes
	var added int
	var err error
	if s.tracedLoads%2 == 0 {
		sp := r.begin("service.Load")
		added, _, err = s.wsvc.Load(context.Background(), facts)
		r.end(sp)
	} else {
		s.directLoads++
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := r.begin("ldl.InsertFacts")
		added, _, err = s.wsys.InsertFacts(facts)
		r.end(sp)
		runtime.ReadMemStats(&m1)
		s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		s.allocs += m1.Mallocs - m0.Mallocs
	}
	if err == nil && added != want {
		err = fmt.Errorf("load %s: added %d, want %d", facts, added, want)
	}
	r.check(err)
	if d := s.wsys.Durability(); d.Durable && d.SegmentBytes >= wal0 {
		s.walBytes = append(s.walBytes, d.SegmentBytes-wal0)
	}
}

// joinRows renders library answer rows the way the protocol does.
func joinRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, ",")
	}
	return out
}

// noteCheckpoint counts the checkpoints the write side's policy took:
// each runs in the background after a load, and a newer
// LastCheckpoint epoch shows that one has finished.
func (s *stack) noteCheckpoint() {
	if c := s.wsys.Durability().LastCheckpoint; c != s.lastCheckpoint {
		s.checkpoints++
		s.lastCheckpoint = c
	}
}

// checkpointSamples is how many explicit checkpoints timeCheckpoints
// takes.
const checkpointSamples = 5

// timeCheckpoints times explicit checkpoints (a segment flush under
// WithStorageDir) on the write side, each after one more batch from
// next. It runs after the timed steps, so the checkpoints the policy
// took during them are the program's own.
func (s *stack) timeCheckpoints(next func() (facts string, n int)) {
	r := s.r
	for i := 0; i < checkpointSamples; i++ {
		facts, n := next()
		added, _, err := s.wsys.InsertFacts(facts)
		if err == nil && added != n {
			err = fmt.Errorf("load %s: added %d, want %d", facts, added, n)
		}
		r.check(err)
		r.step(func() {
			sp := r.begin("ldl.Checkpoint")
			r.check(s.wsys.Checkpoint())
			r.end(sp)
		})
	}
	r.set("ldl.checkpoint_p50_ms", "ms", us(percentile(r.tr.durations("ldl.Checkpoint"), 50))/1e3)
}

// finish derives the per-layer metrics of the in-process half.
func (s *stack) finish() {
	r, tr := s.r, s.r.tr
	p := func(name string, pct float64) float64 { return us(percentile(tr.durations(name), pct)) }
	per := func(n, d int64) float64 { return float64(n) / float64(max(d, 1)) }

	st := s.rsvc.Stats()
	r.set("service.query_p50_us", "us", p("service.Query", 50))
	r.set("service.query_p99_us", "us", p("service.Query", 99))
	r.set("service.load_p50_us", "us", p("service.Load", 50))
	r.set("service.plan_hit_ratio", "ratio", per(st.Hits, st.Hits+st.Misses))
	r.set("service.invalidations_per_load", "count", per(st.Invalidations, s.loads))
	r.set("service.revalidation_ratio", "ratio", per(st.Revalidations, st.Hits))
	r.set("service.view_query_ratio", "ratio", per(st.ViewQueries, st.Queries))

	prepares := tr.durations("core.Prepare")
	r.set("core.prepare_p50_us", "us", p("core.Prepare", 50))
	r.set("core.prepare_p99_us", "us", p("core.Prepare", 99))
	r.set("core.optimize_p50_us", "us", p("core.Optimize", 50))
	r.set("core.prepares", "count", float64(len(prepares)))
	r.set("core.plan_cost_sum", "cost", s.planCost)

	planned := s.tracedQueries - s.viewQueries
	r.set("eval.exec_p50_us", "us", p("eval.ExecuteStats", 50))
	r.set("eval.exec_p99_us", "us", p("eval.ExecuteStats", 99))
	r.set("eval.lookups_per_query", "count", per(s.lookups, planned))
	r.set("eval.tuples_derived_per_query", "count", per(s.derived, planned))
	r.set("eval.iterations_per_query", "count", per(s.iterations, planned))
	r.set("eval.blocks_per_query", "count", per(s.blocks, planned))
	r.set("eval.rows_per_derived", "ratio", per(s.rows, s.derived))
	r.set("eval.kernel_fallbacks", "count", float64(s.fallbacks))

	if s.loads > 0 {
		r.set("loads", "count", float64(s.loads))
		r.set("ldl.insert_p50_us", "us", p("ldl.InsertFacts", 50))
		r.set("ldl.insert_p99_us", "us", p("ldl.InsertFacts", 99))
		r.set("ldl.insert_alloc_bytes", "bytes", per(int64(s.allocBytes), s.directLoads))
		r.set("ldl.insert_allocs", "count", per(int64(s.allocs), s.directLoads))
		var walSum int64
		for _, b := range s.walBytes {
			walSum += b
		}
		r.set("wal.bytes_per_load", "bytes", per(walSum, int64(len(s.walBytes))))
	}
	r.set("ldl.checkpoints", "count", float64(s.checkpoints))

	seg := s.wsys.StorageStats()
	r.set("segment.flushes", "count", float64(seg.Flushes-s.seg0.Flushes))
	r.set("segment.bloom_prunes_per_query", "count", per(seg.BloomPrunes-s.seg0.BloomPrunes, s.queries))
	r.set("segment.row_bloom_skips_per_load", "count", per(seg.RowBloomSkips-s.seg0.RowBloomSkips, s.loads))

	ivm := s.wsys.IVMStats()
	r.set("ivm.rounds_per_load", "count", per(ivm.IncrementalRounds-s.ivm0.IncrementalRounds, s.loads))
	r.set("ivm.delta_rows_per_load", "count", per(ivm.DeltaRows-s.ivm0.DeltaRows, s.loads))
	r.set("ivm.scratch_fallbacks", "count", float64(ivm.ScratchFallbacks-s.ivm0.ScratchFallbacks))
	r.set("ivm.view_query_p50_us", "us", p("ivm.AnswersFromViews", 50))
	r.set("ivm.view_query_p99_us", "us", p("ivm.AnswersFromViews", 99))
}

// inProcess runs op for the second half of the run, untraced and
// traced by turns so both see the same host conditions, and records
// how much longer the median traced step took as trace.overhead_pct.
// op must make only the workload's own calls when r.tr is nil.
func (r *run) inProcess(op func()) error {
	tr := r.tr
	var plain, traced []time.Duration
	err := r.loop(r.seconds/2, func() error {
		t0 := time.Now()
		if len(plain) <= len(traced) {
			r.tr = nil
			op()
			plain = append(plain, time.Since(t0))
			return nil
		}
		r.tr = tr
		r.step(op)
		traced = append(traced, time.Since(t0))
		return nil
	})
	r.tr = tr
	if err != nil {
		return err
	}
	r.set("trace.overhead_pct", "%", 100*(float64(percentile(traced, 50))/float64(percentile(plain, 50))-1))
	return nil
}

// tracedReadOnly is the traced read-sg or plan-churn: reads over TCP,
// then the same reads against an in-memory System in process.
func tracedReadOnly(r *run, inputs func(*run) (string, readGen, error)) error {
	program, next, srv, c, err := r.readOnlySetup(inputs)
	if err != nil {
		return err
	}
	err = r.tcpTraced(c, func() {
		goal, want := next()
		r.query(c, "", goal, 0, want)
	})
	c.close()
	r.stop(srv)
	if err != nil {
		return err
	}
	sys, err := ldl.Load(program)
	if err != nil {
		return err
	}
	svc := service.New(sys, service.Config{})
	s := newStack(r, sys, svc, sys, svc)
	if err := r.inProcess(func() { s.query(next()) }); err != nil {
		return err
	}
	s.finish()
	return r.finishTrace()
}

func tracedReadSG(r *run) error    { return tracedReadOnly(r, sgInputs) }
func tracedPlanChurn(r *run) error { return tracedReadOnly(r, churnInputs) }

func tracedWriteReplicated(r *run) error {
	f := newForest(genRNG(r), forestTrees, forestDepth, forestFanout)
	prog, err := r.writeFile("forest.ldl", f.program)
	if err != nil {
		return err
	}
	p, err := r.startReplPair(prog, r.path("leader-data"))
	if err != nil {
		return err
	}
	defer p.lc.close()
	if err := r.tcpTraced(p.fc, func() { r.replOp(p, f) }); err != nil {
		return err
	}
	if err := r.checkReadsServed(p); err != nil {
		return err
	}
	p.fc.close()
	r.stop(p.follower)

	// The in-process follower: the leader process keeps shipping, the
	// apply hook times each batch.
	fsys, err := ldl.Load(f.program)
	if err != nil {
		return err
	}
	fsys.SetReadOnly(p.leader.addr)
	var mu sync.Mutex
	applied := map[uint64]time.Time{}
	tr := r.tr
	fol := &repl.Follower{
		Target:  p.leader.addr,
		Applied: fsys.Epoch,
		Apply: func(b wal.Batch) error {
			sp := tr.begin("repl.ApplyReplicated", 0, 0)
			err := fsys.ApplyReplicated(b)
			tr.end(sp)
			mu.Lock()
			applied[b.Epoch] = time.Now()
			mu.Unlock()
			return err
		},
		Term:        fsys.Term,
		ObserveTerm: func(t uint64) { fsys.ObserveTerm(t) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fol.Run(ctx)
	}()
	defer wg.Wait()
	defer cancel()
	fsvc := service.New(fsys, service.Config{})
	ls, err := p.lc.stats()
	if err != nil {
		return err
	}
	if err := fsvc.WaitEpoch(ctx, uint64(statInt(ls, "epoch")), 60*time.Second); err != nil {
		return fmt.Errorf("in-process follower catch-up: %w", err)
	}

	// The write side: a durable System fed the same facts, where the
	// insert path, the log and checkpoints are timed.
	policy, err := ldl.ParseFsyncPolicy("always")
	if err != nil {
		return err
	}
	msys, err := ldl.Load(f.program, ldl.WithDurability(r.path("mirror-data")), ldl.WithFsyncPolicy(policy, 0), ldl.WithCheckpointBytes(replCheckpointBytes))
	if err != nil {
		return err
	}
	defer msys.Close()
	s := newStack(r, fsys, fsvc, msys, service.New(msys, service.Config{}))
	var ackToApply []time.Duration
	err = r.inProcess(func() {
		facts, tree, leaf := f.appendLeaf(r.rng)
		epoch, err := r.load(p.lc, facts)
		if err != nil {
			return
		}
		acked := time.Now()
		sp := r.begin("service.WaitEpoch")
		err = fsvc.WaitEpoch(ctx, epoch, 10*time.Second)
		r.end(sp)
		r.check(err)
		if err != nil {
			return
		}
		// WaitEpoch can return between the publish inside
		// ApplyReplicated and the hook noting the time; wait for it.
		for deadline := time.Now().Add(time.Second); r.tr != nil && time.Now().Before(deadline); time.Sleep(20 * time.Microsecond) {
			mu.Lock()
			at, ok := applied[epoch]
			mu.Unlock()
			if ok {
				ackToApply = append(ackToApply, at.Sub(acked))
				break
			}
		}
		s.query(sgGoal(leaf), rowsFor(leaf, f.answer(tree)))
		s.load(facts, 2)
	})
	if err != nil {
		return err
	}
	s.finish()
	s.timeCheckpoints(func() (string, int) {
		facts, _, _ := f.appendLeaf(r.rng)
		return facts, 2
	})
	r.set("repl.apply_p50_us", "us", us(percentile(tr.durations("repl.ApplyReplicated"), 50)))
	r.set("repl.apply_p99_us", "us", us(percentile(tr.durations("repl.ApplyReplicated"), 99)))
	r.set("repl.ack_to_apply_p50_us", "us", us(percentile(ackToApply, 50)))
	r.set("repl.ack_to_apply_p99_us", "us", us(percentile(ackToApply, 99)))
	r.set("repl.wait_p50_us", "us", us(percentile(tr.durations("service.WaitEpoch"), 50)))
	r.set("repl.seeds", "count", float64(fol.Stats().Seeds))
	return r.finishTrace()
}

func tracedIVMGrove(r *run) error {
	g, dir, srv, c, err := r.groveSetup()
	if err != nil {
		return err
	}
	err = r.tcpTraced(c, func() { r.groveOp(c, g) })
	c.close()
	r.stop(srv) // flushes what the TCP half appended
	if err != nil {
		return err
	}

	policy, err := ldl.ParseFsyncPolicy("always")
	if err != nil {
		return err
	}
	opts := []ldl.SystemOption{ldl.WithStorageDir(dir), ldl.WithFsyncPolicy(policy, 0), ldl.WithCheckpointBytes(groveCheckpointBytes), ldl.WithMaterialized()}
	t0 := time.Now()
	sys, err := ldl.Load(g.program, opts...)
	if err != nil {
		return err
	}
	r.set("segment.boot_s", "s", time.Since(t0).Seconds())
	defer sys.Close()
	svc := service.New(sys, service.Config{SystemOptions: opts})
	s := newStack(r, sys, svc, sys, svc)
	err = r.inProcess(func() {
		facts, chain := g.extend(r.rng, groveAppend)
		s.load(facts, groveAppend)
		for i := 0; i < groveReads; i++ {
			if i > 0 {
				chain = -1
			}
			node, ch, pos := g.pick(r.rng, chain)
			s.query(tcGoal(node), rowsFor(node, g.answer(ch, pos)))
		}
	})
	if err != nil {
		return err
	}
	s.finish()
	s.timeCheckpoints(func() (string, int) {
		facts, _ := g.extend(r.rng, groveAppend)
		return facts, groveAppend
	})
	return r.finishTrace()
}
