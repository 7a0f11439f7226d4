package main

// Shared measurement plumbing: server lifetimes inside the run
// directory, checked requests, latency samples and percentiles.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times a run sets its servers up; setup_s is
// the median, so one slow start does not move it.
const setupRounds = 5

// warmup runs before timing starts, so the plan cache and the
// allocator reach their steady state.
const warmup = 500 * time.Millisecond

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

func (r *run) writeFile(name, content string) (string, error) {
	p := r.path(name)
	return p, os.WriteFile(p, []byte(content), 0o644)
}

// start launches an ldlserver whose log goes to the run directory. It
// is stopped by stopAll at the latest.
func (r *run) start(tag string, args ...string) (*server, error) {
	s, err := startServer(r.bin, r.path(fmt.Sprintf("%s-%d.log", tag, len(r.servers))), args...)
	if err != nil {
		return nil, err
	}
	r.servers = append(r.servers, s)
	return s, nil
}

// stop ends the given servers and forgets them.
func (r *run) stop(ss ...*server) {
	for _, s := range ss {
		s.stop()
		r.forget(s)
	}
}

// kill ends the given servers without a clean shutdown and forgets
// them: for set-up rounds whose data nothing reads again.
func (r *run) kill(ss ...*server) {
	for _, s := range ss {
		s.kill()
		r.forget(s)
	}
}

func (r *run) forget(s *server) {
	r.servers = slices.DeleteFunc(r.servers, func(x *server) bool { return x == s })
}

func (r *run) stopAll() { r.stop(append([]*server(nil), r.servers...)...) }

// setup runs up r.rounds times, each from server start to the first
// correct answer, and records the median as setup_s. Every round but
// the last is torn down with teardown; the last round's servers are the
// ones the workload measures.
func (r *run) setup(up func(round int) error, teardown func()) error {
	var samples []time.Duration
	for i := 0; i < r.rounds; i++ {
		t0 := time.Now()
		if err := up(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		samples = append(samples, time.Since(t0))
		if i < r.rounds-1 {
			teardown()
		}
	}
	r.set("setup_s", "s", percentile(samples, 50).Seconds())
	if len(samples) > 1 {
		r.note("setup rounds: %v", samples)
	}
	return nil
}

// loop calls op until the deadline. After maxStreak failed requests in
// a row it gives up: the servers are gone, and timing more errors would
// measure nothing.
func (r *run) loop(d time.Duration, op func() error) error {
	const maxStreak = 20
	streak := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		before := r.failed
		if err := op(); err != nil {
			return err
		}
		if r.failed > before {
			if streak++; streak >= maxStreak {
				return fmt.Errorf("%d requests failed in a row: %s", streak, r.failures[len(r.failures)-1])
			}
		} else {
			streak = 0
		}
	}
	return nil
}

// query sends one QUERY, records its latency under kind and checks the
// answer. wait > 0 adds the read-your-writes token.
func (r *run) query(c *client, kind, goal string, wait uint64, want []string) error {
	line := "QUERY " + goal
	if wait > 0 {
		line += fmt.Sprintf(" wait=%d", wait)
	}
	sp := r.begin("ldlserver.QUERY")
	in := c.bytesIn
	t0 := time.Now()
	_, rows, err := c.do(line)
	d := time.Since(t0)
	r.end(sp)
	if r.tr != nil {
		r.respBytes += c.bytesIn - in
		r.respQueries++
	}
	if err == nil {
		err = sameRows(goal, rows, want)
	}
	r.check(err)
	if kind != "" {
		r.lat[kind] = append(r.lat[kind], d)
	}
	return err
}

// load sends one LOAD, records its latency and checks that every fact
// was new: the run never repeats a fact, so OK <added> must equal the
// number sent.
func (r *run) load(c *client, facts string) (uint64, error) {
	sp := r.begin("ldlserver.LOAD")
	t0 := time.Now()
	added, epoch, err := c.load(facts)
	d := time.Since(t0)
	r.end(sp)
	if want := strings.Count(facts, "."); err == nil && added != want {
		err = fmt.Errorf("LOAD %s: added %d, sent %d", facts, added, want)
	}
	r.check(err)
	r.lat["load"] = append(r.lat["load"], d)
	return epoch, err
}

// sameRows compares an answer with the expected rows, order aside.
func sameRows(goal string, got, want []string) error {
	got = append([]string(nil), got...)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: got %d rows %.80q, want %d rows %.80q", goal, len(got), got, len(want), want)
	}
	return nil
}

// rowsFor renders expected answer rows: the bound constant, then each
// value, sorted.
func rowsFor(bound string, values []string) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = bound + "," + v
	}
	sort.Strings(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// latencyMetrics records the p50/p90/p99 of one request kind, each the
// median over the timed windows, and the sample count.
func (r *run) latencyMetrics(kind string) {
	n := 0
	for _, w := range r.windows {
		n += len(w[kind])
	}
	for _, p := range []float64{50, 90, 99} {
		var per []float64
		for _, w := range r.windows {
			if len(w[kind]) > 0 {
				per = append(per, us(percentile(w[kind], p)))
			}
		}
		r.set(fmt.Sprintf("%s_p%.0f_us", kind, p), "us", median(per))
	}
	r.set(kind+"_samples", "count", float64(n))
}

// median of values (0 for none).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// serverMetrics records peak RSS summed over the servers and, when the
// run wrote, the write amplification since writtenBefore.
func (r *run) serverMetrics(ss []*server, writtenBefore int64, payload int64) error {
	var rss float64
	for _, s := range ss {
		mb, err := s.peakRSSMB()
		if err != nil {
			return err
		}
		rss += mb
	}
	r.set("server_rss_mb", "MB", rss)
	if payload > 0 {
		n, err := written(ss)
		if err != nil {
			return err
		}
		r.set("write_amp", "ratio", float64(n-writtenBefore)/float64(payload))
	}
	return nil
}

// written sums the storage bytes the servers have written so far.
func written(ss []*server) (int64, error) {
	var n int64
	for _, s := range ss {
		wb, err := s.writeBytes()
		if err != nil {
			return 0, err
		}
		n += wb
	}
	return n, nil
}

// windows is how many equal stretches the timed part of a run is cut
// into. Each metric is taken per stretch and the median reported, so a
// stall in one stretch (a checkpoint, a noisy neighbour) does not move
// the run's figure.
const windows = 5

// timed runs op for the run's measured duration after a warmup, keeping
// the latency samples of each window apart, and records ops_per_s as
// the median of the windows' completed-request rates.
func (r *run) timed(op func() error) error {
	if err := r.loop(warmup, op); err != nil {
		return err
	}
	var rates []float64
	for i := 0; i < windows; i++ {
		r.lat = map[string][]time.Duration{}
		before := r.attempted
		t0 := time.Now()
		if err := r.loop(r.seconds/windows, op); err != nil {
			return err
		}
		rates = append(rates, float64(r.attempted-before)/time.Since(t0).Seconds())
		r.windows = append(r.windows, r.lat)
	}
	r.set("ops_per_s", "1/s", median(rates))
	return nil
}
