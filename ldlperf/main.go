// Command ldlperf is the repository benchmark. It starts real ldlserver
// processes on loopback TCP, drives one seeded closed-loop workload
// against them from this single process, checks every answer against
// an oracle, and prints the end-to-end metrics. With -trace 1 it
// instead runs the workload traced: spans around the calls it makes
// into each layer's public API, written to a span file when the run
// ends, from which it derives the per-layer metrics.
//
// Run it through run.sh, which builds ldlserver and this harness from
// source first:
//
//	bash ldlperf/run.sh --workload read-sg --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a
// readable report, including metrics that apply to only some workloads.
// The exit code is nonzero when any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix. why says which layers it exercises and
// which it bypasses; BENCHMARK.json carries the same text.
type workload struct {
	name string
	why  string
	run  func(r *run) error // untraced: the end-to-end metrics
	// traced reproduces the workload with spans around each layer call
	// and sets the per-layer metrics.
	traced func(r *run) error
}

var workloads = []workload{
	{"read-sg", "bound same-generation reads over a 200k-fact forest: eval and the protocol work, the planner, stats and WAL idle", runReadSG, tracedReadSG},
	{"plan-churn", "512 six-literal rule forms cycle through a 128-plan cache, so most queries are optimized: the paper's planner under load", runPlanChurn, tracedPlanChurn},
	{"write-replicated", "fsync'd 2-fact LOADs to a leader, each read back from its follower with wait=: write path, WAL, checkpoints, replication", runWriteReplicated, tracedWriteReplicated},
	{"ivm-grove", "LOADs into a segment-backed incrementally materialized TC grove, each followed by 4 view reads: IVM, segment flush and boot", runIVMGrove, tracedIVMGrove},
}

// endToEnd are the metrics every untraced run reports in its JSON line;
// they are BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"ops_per_s", "1/s"},
	{"server_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports; BENCHMARK.json's
// per_layer list. A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"ldlserver.ping_rtt_p50_us", "us"},
	{"ldlserver.resp_bytes_per_query", "bytes"},
	{"service.query_p50_us", "us"},
	{"service.query_p99_us", "us"},
	{"service.load_p50_us", "us"},
	{"service.plan_hit_ratio", "ratio"},
	{"service.invalidations_per_load", "count"},
	{"service.revalidation_ratio", "ratio"},
	{"service.view_query_ratio", "ratio"},
	{"core.prepare_p50_us", "us"},
	{"core.prepare_p99_us", "us"},
	{"core.optimize_p50_us", "us"},
	{"core.prepares", "count"},
	{"core.plan_cost_sum", "cost"},
	{"eval.exec_p50_us", "us"},
	{"eval.exec_p99_us", "us"},
	{"eval.lookups_per_query", "count"},
	{"eval.tuples_derived_per_query", "count"},
	{"eval.iterations_per_query", "count"},
	{"eval.blocks_per_query", "count"},
	{"eval.rows_per_derived", "ratio"},
	{"eval.kernel_fallbacks", "count"},
	{"ldl.insert_p50_us", "us"},
	{"ldl.insert_p99_us", "us"},
	{"ldl.insert_alloc_bytes", "bytes"},
	{"ldl.insert_allocs", "count"},
	{"wal.bytes_per_load", "bytes"},
	{"ldl.checkpoint_p50_ms", "ms"},
	{"ldl.checkpoints", "count"},
	{"segment.boot_s", "s"},
	{"segment.flushes", "count"},
	{"segment.bloom_prunes_per_query", "count"},
	{"segment.row_bloom_skips_per_load", "count"},
	{"ivm.rounds_per_load", "count"},
	{"ivm.delta_rows_per_load", "count"},
	{"ivm.scratch_fallbacks", "count"},
	{"ivm.view_query_p50_us", "us"},
	{"ivm.view_query_p99_us", "us"},
	{"repl.apply_p50_us", "us"},
	{"repl.apply_p99_us", "us"},
	{"repl.ack_to_apply_p50_us", "us"},
	{"repl.ack_to_apply_p99_us", "us"},
	{"repl.wait_p50_us", "us"},
	{"repl.seeds", "count"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one invocation: the seeded request stream, the
// run's private directory, the answer checks and the measurements.
type run struct {
	name    string
	seed    int64
	rng     *rand.Rand // request stream; generators get their own
	seconds time.Duration
	dir     string // fresh per run, removed at the end
	work    string // the build directory the span files go to
	bin     string // ldlserver

	attempted, failed int64
	failures          []string // the first few, for the report

	lat     map[string][]time.Duration   // samples by request kind
	windows []map[string][]time.Duration // lat of each timed window
	values  map[string]float64           // every metric, by name
	units   map[string]string
	notes   []string
	servers []*server
	rounds  int // setup rounds

	// Tracing, when tr is set: the current step's request id and root
	// span, and the response bytes of the traced QUERYs.
	tr                     *tracer
	req, root              int64
	respBytes, respQueries int64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: read-sg, plan-churn, write-replicated or ivm-grove")
		seed    = flag.Int64("seed", 1, "seed for every generated input and request stream")
		seconds = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		bin     = flag.String("server", "", "ldlserver binary")
		work    = flag.String("work", ".bench_build", "directory for run data and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ldlperf: usage: -server <ldlserver> -workload <%s> -seed <n> -seconds <s> -trace <0|1>\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	runs := filepath.Join(*work, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(runs, fmt.Sprintf("%s-%d-", w.name, *seed))
	if err != nil {
		fatal(err)
	}
	r := &run{
		name: w.name, seed: *seed, rng: rand.New(rand.NewSource(*seed)),
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     dir, work: *work, bin: *bin,
		lat: map[string][]time.Duration{}, values: map[string]float64{}, units: map[string]string{},
		rounds: setupRounds,
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		r.rounds = 1
		err = w.traced(r)
	} else {
		err = w.run(r)
	}
	r.stopAll()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	res := r.result(defs)
	r.note("machine: %s", machine(*work))
	r.printReport(os.Stdout)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// machine describes where the run happened: CPU model, CPUs, the Go
// scheduler's parallelism and the filesystem the servers wrote to.
func machine(dir string) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	fs := "unknown"
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		fs = map[int64]string{0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683e: "btrfs"}[int64(st.Type)]
		if fs == "" {
			fs = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d fs=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), fs)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ldlperf: %v\n", err)
	os.Exit(1)
}

// check counts one attempted request; a non-nil err is a failed or
// wrong answer.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// set records a metric value.
func (r *run) set(name, unit string, v float64) {
	r.values[name] = v
	r.units[name] = unit
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result builds the JSON line from the metrics in defs. A metric the
// workload did not measure is 0.
func (r *run) result(defs []metricDef) result {
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}

// printReport writes every measured value, including the ones that are
// not part of the JSON line, then the notes and any failures.
func (r *run) printReport(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d\n", r.name, r.seed)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, r.values[n], r.units[n])
	}
	fmt.Fprintf(w, "  %-34s %14.6f ratio (%d of %d)\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
