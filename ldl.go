// Package ldl is a from-scratch Go implementation of the LDL query
// optimizer described in R. Krishnamurthy & C. Zaniolo, "Optimization
// in a Logic Based Language for Knowledge and Data Intensive
// Applications" (EDBT 1988), together with the complete substrate that
// paper assumes: a Horn-clause language with complex terms and
// evaluable predicates, a relational/fixpoint execution engine,
// recursive-query rewrites (magic sets, counting), database statistics
// and a cost model.
//
// The entry point is a System: load a program (rules + facts), then ask
// it to Optimize query forms. Optimization is query-form-specific —
// sg(john, Y)? compiles to a different execution than sg(X, Y)? — and
// integrates safety: queries with no terminating execution are
// rejected with a diagnosis rather than looping forever.
//
//	sys, _ := ldl.Load(src)
//	plan, _ := sys.Optimize("sg(john, Y)", ldl.WithStrategy(ldl.StrategyExhaustive))
//	fmt.Println(plan.Explain())
//	rows, _ := plan.Execute()
package ldl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldl/internal/core"
	"ldl/internal/cost"
	"ldl/internal/depgraph"
	"ldl/internal/eval"
	"ldl/internal/lang"
	"ldl/internal/parser"
	"ldl/internal/resource"
	"ldl/internal/stats"
	"ldl/internal/store"
	"ldl/internal/wal"
)

// The resource-governor error taxonomy. Optimize, Execute and the
// evaluators return errors matchable with errors.Is against these
// sentinels when a configured budget is exceeded; every such error is
// a *ResourceError carrying the work counters at the violation, read
// with errors.As. Safety (rejecting queries with no terminating
// execution) is a static guarantee; these budgets are the dynamic
// complement — a safe query can still be too expensive to run.
var (
	// ErrTimeout: the WithTimeout bound or the WithContext deadline
	// passed before the call finished.
	ErrTimeout = resource.ErrTimeout
	// ErrCanceled: the WithContext context was canceled.
	ErrCanceled = resource.ErrCanceled
	// ErrTupleBudget: evaluation derived more tuples than WithMaxTuples
	// allows.
	ErrTupleBudget = resource.ErrTupleBudget
	// ErrIterationBudget: the fixpoint ran more rounds than
	// WithMaxIterations allows.
	ErrIterationBudget = resource.ErrIterationBudget
	// ErrOptimizerBudget: the plan search exhausted WithOptimizerBudget.
	// Inside Optimize this triggers graceful degradation to the KBZ
	// strategy instead of failing, so it is rarely observed by callers;
	// it is exported so the taxonomy is complete.
	ErrOptimizerBudget = resource.ErrOptimizerBudget
	// ErrInternal wraps a recovered internal panic: the library
	// guarantees that no malformed program or optimizer bug can take
	// down a serving process through Load, Optimize or Execute.
	ErrInternal = errors.New("ldl: internal error")
)

// ResourceError is the concrete type of all budget errors; Counters
// reports tuples derived, fixpoint iterations, optimizer states
// explored and elapsed time at the moment the budget tripped.
type ResourceError = resource.ResourceError

// ResourceCounters is the counter block inside a ResourceError.
type ResourceCounters = resource.Counters

// guard converts a panic escaping an internal layer into ErrInternal.
// Deferred at every public API boundary so one bad program cannot
// crash the process hosting the library.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: panic: %v", ErrInternal, r)
	}
}

// Strategy names the optimizer's search strategy for conjunct ordering.
type Strategy string

// The three interchangeable strategies of the paper's §7.1, plus the
// Selinger dynamic-programming variant of exhaustive search.
const (
	StrategyExhaustive Strategy = "exhaustive"
	StrategyDP         Strategy = "dp"
	StrategyKBZ        Strategy = "kbz"
	StrategyAnneal     Strategy = "anneal"
)

func (s Strategy) impl(seed int64) (core.Strategy, error) {
	switch s {
	case StrategyExhaustive, "":
		return core.Exhaustive{}, nil
	case StrategyDP:
		return core.DP{}, nil
	case StrategyKBZ:
		return core.KBZ{}, nil
	case StrategyAnneal:
		return core.Anneal{Seed: seed}, nil
	}
	return nil, fmt.Errorf("ldl: unknown strategy %q", s)
}

// System is a loaded knowledge base: rule base, fact base and gathered
// statistics. The fact base is versioned into epochs: every update
// (InsertFacts, SetStats) builds a new immutable epoch and publishes it
// atomically, so any number of concurrent readers (Execute, Prepared
// executions) run against a consistent snapshot while exactly one
// writer at a time advances the state. An epoch is never mutated after
// publication — executions fork it copy-on-write for their transient
// seed facts.
type System struct {
	prog    *lang.Program
	queries []lang.Query

	// writeMu serializes epoch construction; epoch is the atomically
	// published current snapshot. head is the newest *appended* epoch —
	// under group commit a writer chains its epoch onto head (and logs
	// it) inside writeMu, then waits for the cohort fsync and publishes
	// outside it, so the log never stalls behind an fsync and readers
	// never see a batch before it is durable. head == published except
	// in the window where commits are in flight; headLSN is the log
	// position covering head. Both are guarded by writeMu.
	writeMu sync.Mutex
	epoch   atomic.Pointer[epochState]
	head    *epochState
	headLSN int64

	// readOnly marks a replica: InsertFacts refuses with a
	// *ReadOnlyError pointing at leaderAddr until Promote. Guarded by
	// writeMu.
	readOnly   bool
	leaderAddr string

	// term is the leader-term high-water mark (guarded by writeMu):
	// every logged batch is stamped with it, Promote bumps it, and
	// ObserveTerm adopts higher terms seen on the wire — demoting a
	// stale leader to read-only when one appears. fenced counts fencing
	// events (stale streams refused, demotions latched) for STATS.
	term   uint64
	fenced atomic.Int64

	// observed holds derived-extension statistics recorded after
	// materializing executions (exact cardinality and live per-column
	// distinct counts of fully computed derived predicates). When
	// feedback is enabled they overlay the catalog at Optimize/Prepare
	// time, replacing the optimizer's static analytic estimates. Kept
	// outside the epoch so recording an observation does not advance the
	// epoch (which would invalidate prepared-plan caches keyed on it).
	obsMu    sync.Mutex
	observed map[string]stats.RelStats
	feedback atomic.Bool

	// Durability (nil / zero unless Load saw WithDurability — the
	// in-memory path pays only a nil check). wal is the write-ahead log
	// every InsertFacts batch hits before its epoch publishes; recovery
	// is what boot found in the data directory; ckptBytes triggers the
	// background checkpointer, ckptBusy dedupes triggers and ckptMu
	// serializes the checkpoints themselves.
	wal       *wal.Log
	walDir    string
	walFS     wal.FS
	recovery  *wal.RecoveryReport
	ckptBytes int64
	ckptBusy  atomic.Bool
	ckptMu    sync.Mutex

	// Storage tier (nil unless Load saw WithStorageDir): the segment
	// directory state behind segCheckpoint and StorageStats. seg.man is
	// guarded by ckptMu; segFlushes is the lifetime flush counter.
	seg        *segState
	segFlushes atomic.Int64

	// Materialized views (zero unless Load saw WithMaterialized):
	// maintenance configuration, the Load-time cached dependency graph
	// and compiled kernels every epoch's maintenance reuses, and the
	// lifetime telemetry behind IVMStats. The views themselves live on
	// the epoch (epochState.mat) so they publish atomically with the
	// facts.
	matCfg   matConfig
	matGraph *depgraph.Graph
	matKern  *eval.ProgramKernels
	ivm      ivmCounters
}

// epochState is one immutable published version of the fact base: the
// database, its statistics catalog, and the evaluator pre-sizing hints
// derived from the catalog.
type epochState struct {
	id    uint64
	db    *store.Database
	cat   *stats.Catalog
	hints map[string]int
	// mat holds this epoch's materialized derived relations and base
	// watermarks; nil when the System is not materialized or this
	// epoch's maintenance degraded. Immutable after publication, like
	// everything else here.
	mat *matState
}

// newEpoch assembles an epoch, deriving the size hints: base predicates
// get their exact cardinality so derived relations seeded from base
// facts skip every rehash growth step up to that size.
func newEpoch(id uint64, db *store.Database, cat *stats.Catalog) *epochState {
	hints := make(map[string]int)
	for _, tag := range cat.Tags() {
		if c := cat.Stats(tag).Card; c > 0 {
			hints[tag] = int(c)
		}
	}
	return &epochState{id: id, db: db, cat: cat, hints: hints}
}

// snapshot returns the current epoch. The returned state is immutable;
// callers may read it for as long as they like regardless of concurrent
// writers.
func (s *System) snapshot() *epochState { return s.epoch.Load() }

// headState returns the newest appended epoch — the one new writes must
// chain onto, which is ahead of the published snapshot while a group
// commit is in flight. Caller holds writeMu.
func (s *System) headState() *epochState {
	if s.head != nil {
		return s.head
	}
	return s.epoch.Load()
}

// publish makes next the current snapshot unless a later epoch already
// is. Out-of-order publication happens under group commit: writer B's
// cohort fsync (covering A's record too) can finish before A wakes up —
// B publishes both, and A's late store must not roll the snapshot back.
// A later epoch always contains every earlier epoch's facts, so the
// monotonic rule is safe.
func (s *System) publish(next *epochState) {
	for {
		cur := s.epoch.Load()
		if cur != nil && cur.id >= next.id {
			return
		}
		if s.epoch.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Epoch returns the identifier of the currently published fact-base
// version. It increases by one per update; two executions reporting the
// same epoch saw the same facts.
func (s *System) Epoch() uint64 { return s.snapshot().id }

// Load parses LDL source text (rules, facts and optional "goal?" query
// forms), loads the facts and gathers exact statistics. With
// WithDurability the facts recovered from the data directory (newest
// checkpoint plus log tail) are merged on top of the program's own, and
// subsequent InsertFacts batches are write-ahead logged.
func Load(src string, opts ...SystemOption) (_ *System, err error) {
	defer guard(&err)
	var cfg sysConfig
	for _, f := range opts {
		f(&cfg)
	}
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	// Predicates mixing facts and rules are normalized so program
	// rewrites (magic, counting) keep their facts.
	prog, err = lang.Normalize(prog)
	if err != nil {
		return nil, err
	}
	s := &System{prog: prog, queries: queries, observed: map[string]stats.RelStats{}}
	s.term = 1 // terms start at 1; durable boots raise it from recovery
	s.matCfg = cfg.mat
	if err := s.matSetup(); err != nil {
		return nil, err
	}
	if cfg.segDir != "" {
		// The storage tier builds the database itself: segment parts
		// must attach before any tail row (program facts included).
		if cfg.walDir != "" && cfg.walDir != cfg.segDir {
			return nil, fmt.Errorf("ldl: WithStorageDir(%q) conflicts with WithDurability(%q): the log lives in the storage directory", cfg.segDir, cfg.walDir)
		}
		if err := s.attachStorage(cfg); err != nil {
			return nil, err
		}
		return s, nil
	}
	db := store.NewDatabase()
	if err := db.LoadFacts(prog); err != nil {
		return nil, err
	}
	if cfg.walDir != "" {
		if err := s.attachWAL(db, cfg); err != nil {
			return nil, err
		}
		return s, nil
	}
	ep := newEpoch(1, db, stats.Gather(db))
	if err := s.materializeBoot(ep); err != nil {
		return nil, err
	}
	s.epoch.Store(ep)
	return s, nil
}

// InsertFacts parses src — which must contain only facts — and
// publishes a new epoch containing them. The current epoch is forked
// copy-on-write: only the relations the batch touches are duplicated,
// and only their statistics are re-gathered (from the store's
// incrementally maintained exact counters), so the cost of an update is
// proportional to the touched relations, not the database. Concurrent
// readers keep their snapshots; the new facts are visible to executions
// that start after InsertFacts returns. It returns the number of
// genuinely new tuples and the new epoch id.
func (s *System) InsertFacts(src string) (added int, epoch uint64, err error) {
	defer guard(&err)
	prog, queries, err := parser.ParseProgram(src)
	if err != nil {
		return 0, 0, err
	}
	if len(queries) > 0 {
		return 0, 0, fmt.Errorf("ldl: InsertFacts: source contains a query form")
	}
	if len(prog.Rules) > 0 {
		return 0, 0, fmt.Errorf("ldl: InsertFacts: %s is a rule, not a fact", prog.Rules[0].Head)
	}
	touched := map[string]bool{}
	for _, c := range prog.Facts {
		if s.prog.IsDerived(c.Head.Tag()) {
			return 0, 0, fmt.Errorf("ldl: InsertFacts: %s is a derived predicate", c.Head.Tag())
		}
		touched[c.Head.Tag()] = true
	}
	// Phase 1, under writeMu: chain a new epoch onto the head and append
	// its log record without syncing. The critical section contains no
	// fsync, so concurrent writers pile their records into the same
	// segment back to back — the cohort one group commit covers.
	var next *epochState
	var lsn int64
	if err := func() error {
		s.writeMu.Lock()
		defer s.writeMu.Unlock()
		if s.readOnly {
			return &ReadOnlyError{Leader: s.leaderAddr}
		}
		ep := s.headState()
		db2 := ep.db.Fork()
		// Per-relation watermarks: the length each touched relation had
		// before this batch, for the added count and for the catalog's
		// incremental acyclicity recheck over exactly the appended suffix.
		marks := make(map[string]int, len(touched))
		before := 0
		for tag := range touched {
			if r := db2.Relation(tag); r != nil {
				marks[tag] = r.Len()
				before += r.Len()
			} else {
				marks[tag] = 0
			}
		}
		if err := db2.LoadFacts(prog); err != nil {
			return err
		}
		after := 0
		for tag := range touched {
			after += db2.Relation(tag).Len()
		}
		added = after - before
		next = newEpoch(ep.id+1, db2, stats.Update(ep.cat, db2, marks))
		if s.wal != nil {
			var err error
			if lsn, err = s.logBatch(next.id, prog.Facts); err != nil {
				return err // nothing appended: head unchanged, batch rejected
			}
			s.headLSN = lsn
		}
		// Carry the materialized views onto the new epoch by continuing
		// the previous fixpoint from exactly this batch's rows. Done
		// before the epoch is chained so views and facts publish together.
		s.maintainViews(next, ep)
		s.head = next
		return nil
	}(); err != nil {
		return 0, 0, err
	}
	// Phase 2, outside writeMu: write-ahead ordering. The batch must be
	// durable (per the fsync policy) before any reader can observe its
	// epoch. Commit group-commits: one cohort leader fsyncs for every
	// record appended meanwhile. On failure the epoch is not published —
	// the caller sees the error and the published state keeps the last
	// acknowledged prefix (the log is wedged, so no later batch can
	// publish over the hole either).
	if s.wal != nil {
		if err := s.wal.Commit(lsn); err != nil {
			return 0, 0, fmt.Errorf("ldl: InsertFacts: write-ahead log: %w", err)
		}
	}
	s.publish(next)
	s.maybeCheckpoint()
	return added, next.id, nil
}

// EnableStatsFeedback turns on the execution→cost-model feedback loop:
// after each materializing execution the exact cardinality and live
// per-column distinct counts of every fully computed derived predicate
// are recorded, and later Optimize/Prepare calls use them in place of
// the static analytic estimates. Off by default so that plan choice is
// a pure function of the loaded facts (the reproducibility property the
// optimizer tests rely on); the serving layer turns it on.
func (s *System) EnableStatsFeedback(on bool) { s.feedback.Store(on) }

// effectiveCat returns the epoch catalog, overlaid with the observed
// derived-extension statistics when feedback is enabled.
func (s *System) effectiveCat(ep *epochState) *stats.Catalog {
	if !s.feedback.Load() {
		return ep.cat
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if len(s.observed) == 0 {
		return ep.cat
	}
	cat := ep.cat.Clone()
	for tag, st := range s.observed {
		cat.Set(tag, st)
	}
	return cat
}

// recordObserved walks the engine's derived relations after a run and
// records them into the feedback overlay. A derived tag carrying the
// all-free adornment (pred.ff…f) is, by construction of the rewrites,
// the complete extension of pred — its exact cardinality and distinct
// counts are ground truth for the cost model, recorded under the plain
// tag and overwritten freely. A partially bound adornment (pred.bf…)
// is the extension restricted by this execution's constants; it is
// recorded under the adorned tag itself — which is exactly what
// statsOf looks up when costing the rewritten program of a later query
// of the same form — aggregated as the max over the constants seen, the
// safe estimate for an arbitrary future binding.
func (s *System) recordObserved(e *eval.Engine) {
	if !s.feedback.Load() {
		return
	}
	for _, tag := range e.DerivedTags() {
		slash := strings.LastIndexByte(tag, '/')
		if slash < 0 {
			continue
		}
		name := tag[:slash]
		// The magic rewrite materializes the restricted extension of an
		// adorned predicate as a$pred.adorn — strip the prefix so it is
		// recorded under the adorned tag itself (the tag statsOf costs).
		// The other rewrite auxiliaries (m$ seeds, c$ supplementaries,
		// q$ answer projections) are not predicate extensions: skip.
		if rest, ok := strings.CutPrefix(name, "a$"); ok {
			name = rest
		} else if strings.ContainsRune(name, '$') {
			continue
		}
		dot := strings.LastIndexByte(name, '.')
		if dot < 0 {
			continue
		}
		pat := name[dot+1:]
		if len(pat) == 0 || strings.Count(pat, "f")+strings.Count(pat, "b") != len(pat) {
			continue // not an adornment pattern
		}
		r := e.RelationFor(tag)
		if r == nil || r.Len() == 0 {
			continue
		}
		st := stats.GatherOne(r)
		s.obsMu.Lock()
		if strings.Count(pat, "f") == len(pat) {
			// Full extension: ground truth, latest run wins.
			s.observed[name[:dot]+tag[slash:]] = st
		} else {
			// Bound form: max over constants.
			key := name + tag[slash:]
			if old, ok := s.observed[key]; !ok || st.Card > old.Card {
				s.observed[key] = st
			}
		}
		s.obsMu.Unlock()
	}
}

// Queries returns the query forms embedded in the source ("goal?").
func (s *System) Queries() []string {
	out := make([]string, len(s.queries))
	for i, q := range s.queries {
		out[i] = q.Goal.String()
	}
	return out
}

// Relations lists the base and loaded relations with cardinalities.
func (s *System) Relations() []string {
	ep := s.snapshot()
	var out []string
	for _, tag := range ep.db.Tags() {
		out = append(out, fmt.Sprintf("%s (%d tuples)", tag, ep.db.Relation(tag).Len()))
	}
	sort.Strings(out)
	return out
}

// SetStats overrides the statistics of one relation — the hook
// experiments use to explore synthetic "states of the database". Like
// every statistics change it publishes a new epoch (same facts, new
// catalog), so prepared plans keyed on the epoch re-optimize.
func (s *System) SetStats(tag string, card float64, distinct []float64) {
	s.writeMu.Lock()
	ep := s.headState() // chain off head: an in-flight commit's facts must stay in the chain
	cat := ep.cat.Clone()
	cat.Set(tag, stats.RelStats{Card: card, Distinct: distinct})
	next := newEpoch(ep.id+1, ep.db, cat)
	next.mat = ep.mat // same facts, same views
	s.head = next
	lsn := s.headLSN
	s.writeMu.Unlock()
	if s.wal != nil && lsn > 0 {
		// The chained epoch carries facts whose commit may still be in
		// flight; wait for their durability before publishing over them.
		if s.wal.Commit(lsn) != nil {
			return // log wedged: the stats tweak dies with the write path
		}
	}
	s.publish(next)
}

// Option configures one Optimize call.
type Option func(*options)

type options struct {
	strategy  Strategy
	seed      int64
	flatten   bool
	parallel  int
	noKernels bool

	// Resource governor configuration. Zero values mean "no limit";
	// with everything zero no governor is built and the hot paths pay
	// only a nil check.
	ctx           context.Context
	timeout       time.Duration
	maxTuples     int
	maxIterations int
	optStates     int
}

// governor builds the resource governor for one call. Each call gets a
// fresh deadline (now + timeout), so a Plan optimized under a timeout
// grants every Execute the full duration again.
func (o *options) governor() *resource.Governor {
	b := resource.Budget{
		MaxTuples:     o.maxTuples,
		MaxIterations: o.maxIterations,
		MaxStates:     o.optStates,
	}
	if o.timeout > 0 {
		b.Deadline = time.Now().Add(o.timeout)
	}
	return resource.New(o.ctx, b)
}

// WithStrategy selects the search strategy (default exhaustive).
func WithStrategy(st Strategy) Option { return func(o *options) { o.strategy = st } }

// WithSeed seeds the stochastic strategy.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithContext makes the call observe ctx: cancellation surfaces as
// ErrCanceled, a context deadline as ErrTimeout. The check is
// amortized (the clock is read every few hundred derivations), so
// cancellation takes effect within microseconds, not instantly.
func WithContext(ctx context.Context) Option { return func(o *options) { o.ctx = ctx } }

// WithTimeout bounds the wall-clock time of each governed call
// (Optimize, and each Execute separately); exceeding it returns
// ErrTimeout wrapping a *ResourceError.
func WithTimeout(d time.Duration) Option { return func(o *options) { o.timeout = d } }

// WithMaxTuples bounds how many tuples an execution may derive across
// all relations; exceeding it returns ErrTupleBudget. It bounds space
// as well as time: every derived tuple is materialized.
func WithMaxTuples(n int) Option { return func(o *options) { o.maxTuples = n } }

// WithMaxIterations bounds the number of fixpoint rounds; exceeding it
// returns ErrIterationBudget.
func WithMaxIterations(n int) Option { return func(o *options) { o.maxIterations = n } }

// WithOptimizerBudget bounds the plan-search effort of Optimize to n
// explored states (join orders costed, c-permutations priced). On
// exhaustion the optimizer degrades instead of failing: rule-ordering
// search falls back to the quadratic KBZ strategy and the recursive
// -clique search keeps the best candidate priced so far. Downgrades are
// recorded in Plan.Explain. KBZ itself is exempt (it is the floor of
// the ladder), so Optimize still returns a plan unless time runs out.
func WithOptimizerBudget(n int) Option { return func(o *options) { o.optStates = n } }

// WithParallel evaluates the bottom-up fixpoint on n workers:
// independent recursive cliques of the follows order run concurrently,
// and rule applications within one fixpoint round fan out across the
// pool. n <= 1 keeps the sequential reference engine (the default);
// n < 0 sizes the pool by GOMAXPROCS. Query answers are identical in
// every mode — plans, Explain output and answer order do not change,
// only evaluation wall-clock. Work counters (ExecStats) remain exact,
// but Iterations may differ from the sequential engine's because
// parallel rounds see derivations one barrier later.
func WithParallel(n int) Option { return func(o *options) { o.parallel = n } }

// WithCompiledKernels controls the compiled join-kernel execution path
// (on by default). When on, each rule whose body fits the positional
// register-frame representation is compiled once per recursive clique
// into a join program — constants, bound-variable probes and repeated-
// variable checks resolved per column at compile time — and executed
// without substitution maps or per-candidate allocation; rules needing
// real unification (non-ground compound arguments, constructed heads)
// automatically use the generic interpreter. Answers are identical
// either way; WithCompiledKernels(false) is the A/B escape hatch.
func WithCompiledKernels(on bool) Option { return func(o *options) { o.noKernels = !on } }

// WithFlattening enables the §8.3 rescue: when a query form has no
// safe execution, non-recursive single-rule predicates are unfolded
// into their callers (the FU transformation applied as rewriting) and
// the search retried — the extension the paper sketches for later
// optimizer versions.
func WithFlattening() Option { return func(o *options) { o.flatten = true } }

// Plan is an optimized (and compilable) execution for one query form.
// It captures the epoch it was optimized against: Execute runs on that
// snapshot, so a Plan's answers are stable under concurrent InsertFacts.
type Plan struct {
	sys    *System
	goal   lang.Literal
	epoch  *epochState
	result *core.Result
	opts   options // budgets carry over from Optimize to each Execute
	// Optimizer diagnostics.
	MemoLookups int
	MemoHits    int
}

// Optimize compiles and optimizes one query form, e.g. "sg(john, Y)".
// It never fails on unsafe queries — it returns a Plan whose Safe()
// reports false with a Reason(); Execute then refuses to run.
func (s *System) Optimize(goal string, opts ...Option) (_ *Plan, err error) {
	defer guard(&err)
	var o options
	for _, f := range opts {
		f(&o)
	}
	strat, err := o.strategy.impl(o.seed)
	if err != nil {
		return nil, err
	}
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, err
	}
	ep := s.snapshot()
	opt, err := core.New(s.prog, s.effectiveCat(ep), strat)
	if err != nil {
		return nil, err
	}
	opt.Gov = o.governor()
	var res *core.Result
	if o.flatten {
		res, err = opt.OptimizeFlattened(lang.Query{Goal: lit}, 8)
	} else {
		res, err = opt.Optimize(lang.Query{Goal: lit})
	}
	if err != nil {
		return nil, err
	}
	return &Plan{sys: s, goal: lit, epoch: ep, result: res, opts: o, MemoLookups: opt.MemoLookups, MemoHits: opt.MemoHits}, nil
}

// Safe reports whether a safe (terminating) execution was found.
func (p *Plan) Safe() bool { return p.result.Safe }

// Reason explains why the query is unsafe (empty when Safe).
func (p *Plan) Reason() string { return p.result.Reason }

// Cost is the estimated cost of the chosen execution (+Inf if unsafe).
func (p *Plan) Cost() float64 { return float64(p.result.Cost) }

// Explain renders the chosen processing tree (Figure 4-1 style:
// squares materialize, triangles pipeline, CC marks recursive cliques).
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s?\n", p.goal)
	if !p.result.Safe {
		fmt.Fprintf(&b, "UNSAFE: %s\n", p.result.Reason)
		return b.String()
	}
	fmt.Fprintf(&b, "estimated cost: %.1f, cardinality: %.1f\n", float64(p.result.Cost), p.result.Card)
	// Downgrade notes accumulate in search-visit order, which the
	// parallel optimizer does not fix; sort so Explain is deterministic.
	notes := append([]string(nil), p.result.Downgrades...)
	sort.Strings(notes)
	for _, d := range notes {
		fmt.Fprintf(&b, "note: %s\n", d)
	}
	b.WriteString(p.result.Plan.Render())
	return b.String()
}

// ExecStats reports how much work an execution did.
type ExecStats struct {
	TuplesDerived int
	Iterations    int
	Unifications  int64
	Lookups       int64
	// KernelCompiles counts rule bodies compiled to join kernels during
	// this execution. A Prepared execution reuses its precompiled
	// kernels, so it reports 0 here — the counter is the observable
	// proof that the prepared path skips compilation.
	KernelCompiles int
	// KernelFallbacks counts rules that could not be compiled to join
	// kernels and ran on the generic interpreter instead. With kernels
	// disabled it is 0 (nothing attempted compilation); the counter
	// exposes exactly which executions paid the generic path.
	KernelFallbacks int
	// Blocks counts columnar frames dispatched between steps by the
	// compiled block executor; 0 means no compiled rule ran (kernels
	// disabled, or every rule fell back to the generic interpreter).
	Blocks int64
	// Epoch identifies the fact-base snapshot the execution ran
	// against.
	Epoch uint64
}

// Execute compiles the plan to a program, evaluates it and returns the
// answers as rows of rendered terms, in canonical order.
func (p *Plan) Execute() ([][]string, error) {
	rows, _, err := p.ExecuteStats()
	return rows, err
}

// ExecuteStats is Execute plus work counters.
func (p *Plan) ExecuteStats() (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	compiled, err := p.result.Compile()
	if err != nil {
		return nil, es, err
	}
	prog2, err := lang.NewProgram(compiled.Clauses)
	if err != nil {
		return nil, es, err
	}
	// Fork, not Clone: the compiled program's seed facts go into fresh
	// or copy-on-write relations, so the epoch snapshot is never
	// touched and the per-execute setup cost is O(relations touched by
	// seeds), not O(database).
	db2 := p.epoch.db.Fork()
	if err := db2.LoadFacts(prog2); err != nil {
		return nil, es, err
	}
	methodFor := methodOverrides(compiled.FixMethods, prog2)
	// Budgets turn a diverging execution (which the safety analysis
	// should have prevented) into an error instead of a hang. The
	// governor layers the caller's (typically tighter) budget on top.
	e, err := eval.New(prog2, db2, eval.Options{
		Method: eval.SemiNaive, MethodFor: methodFor,
		MaxTuples: 5_000_000, MaxIterations: 200_000,
		Parallel: p.opts.parallel, SizeHints: p.epoch.hints,
		DisableKernels: p.opts.noKernels,
		Gov:            p.opts.governor(),
	})
	if err != nil {
		return nil, es, err
	}
	if err := e.Run(); err != nil {
		return nil, es, err
	}
	ansPred := compiled.AnswerTag[:strings.LastIndexByte(compiled.AnswerTag, '/')]
	ts, err := e.Answers(lang.Query{Goal: lang.Literal{Pred: ansPred, Args: p.goal.Args}})
	if err != nil {
		return nil, es, err
	}
	p.sys.recordObserved(e)
	es = execStats(e, p.epoch.id)
	return renderRows(ts), es, nil
}

// methodOverrides maps the plan's per-fixpoint recursive-method choices
// onto the compiled program's predicate tags (naive evaluation is the
// only one the engine needs told about; semi-naive is its default).
func methodOverrides(fixMethods map[string]cost.RecMethod, prog2 *lang.Program) map[string]eval.Method {
	methodFor := map[string]eval.Method{}
	for tag, meth := range fixMethods {
		if meth != cost.RecNaive {
			continue
		}
		base := tag[:strings.IndexByte(tag, '/')]
		for _, t2 := range prog2.PredTags() {
			name := t2[:strings.LastIndexByte(t2, '/')]
			if name == base || strings.HasPrefix(name, base+".") {
				methodFor[t2] = eval.Naive
			}
		}
	}
	return methodFor
}

func execStats(e *eval.Engine, epoch uint64) ExecStats {
	return ExecStats{
		TuplesDerived:   e.Counters.TuplesDerived,
		Iterations:      e.Counters.Iterations,
		Unifications:    e.Counters.Unifications,
		Lookups:         e.Counters.Lookups,
		KernelCompiles:  e.Counters.KernelCompiles,
		KernelFallbacks: e.Counters.KernelFallbacks,
		Blocks:          e.Counters.Blocks,
		Epoch:           epoch,
	}
}

func renderRows(ts []store.Tuple) [][]string {
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return rows
}

// Query is the one-shot convenience: optimize with defaults and run.
func (s *System) Query(goal string, opts ...Option) ([][]string, error) {
	p, err := s.Optimize(goal, opts...)
	if err != nil {
		return nil, err
	}
	if !p.Safe() {
		return nil, fmt.Errorf("ldl: query %s is unsafe: %s", goal, p.Reason())
	}
	return p.Execute()
}

// EvaluateTopDown answers the goal with the tabled top-down evaluator:
// goal-directed resolution with one answer table per call pattern — the
// literal realization of pipelined execution, and an independent oracle
// against the bottom-up engine. It can answer bound query forms (e.g. a
// list-consuming recursion with the list supplied) whose bottom-up
// fixpoint does not exist.
func (s *System) EvaluateTopDown(goal string, opts ...Option) (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	var o options
	for _, f := range opts {
		f(&o)
	}
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, es, err
	}
	ep := s.snapshot()
	td := eval.NewTopDown(s.prog, ep.db, eval.Options{MaxTuples: 5_000_000, MaxIterations: 200_000, Gov: o.governor()})
	ts, err := td.Query(lang.Query{Goal: lit})
	if err != nil {
		return nil, es, err
	}
	es = ExecStats{
		TuplesDerived: td.Counters.TuplesDerived,
		Iterations:    td.Counters.Iterations,
		Unifications:  td.Counters.Unifications,
		Lookups:       td.Counters.Lookups,
		Epoch:         ep.id,
	}
	return renderRows(ts), es, nil
}

// EvaluateUnoptimized runs the query on the original program with plain
// semi-naive evaluation and no optimization — the baseline the paper's
// optimizer improves on, exposed for comparison and testing.
func (s *System) EvaluateUnoptimized(goal string, opts ...Option) (_ [][]string, es ExecStats, err error) {
	defer guard(&err)
	var o options
	for _, f := range opts {
		f(&o)
	}
	lit, err := parser.ParseLiteral(goal)
	if err != nil {
		return nil, es, err
	}
	ep := s.snapshot()
	e, err := eval.New(s.prog, ep.db, eval.Options{
		Method: eval.SemiNaive, Parallel: o.parallel,
		SizeHints: ep.hints, DisableKernels: o.noKernels,
		Gov: o.governor(),
	})
	if err != nil {
		return nil, es, err
	}
	ts, err := e.Answers(lang.Query{Goal: lit})
	if err != nil {
		return nil, es, err
	}
	return renderRows(ts), execStats(e, ep.id), nil
}
