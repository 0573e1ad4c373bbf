package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dstress"
	"dstress/internal/obs"
)

const (
	// minDeployments is the least number of fresh deployments an untraced
	// run opens: setup_s and first_query_s are per-deployment quantities,
	// and every deployment redraws the block assignment (hence the
	// straggler). A run keeps opening deployments until --seconds have
	// passed.
	minDeployments = 3
	// steadyPerDeployment is the number of steady queries timed on each
	// deployment after its first query.
	steadyPerDeployment = 2
)

// runner drives one workload's queries through the public engine API:
// one client, one query in flight, closed loop.
type runner struct {
	w       workload
	in      *inputs
	seconds time.Duration
	res     *result

	attempted, failed int
	probeErrs         []string
}

func (r *runner) engine() dstress.SessionEngine {
	cfg := dstress.EngineConfig{Group: dstress.P256(), K: r.w.K, Alpha: transferAlpha, OTMode: dstress.OTIKNP}
	if r.w.Backend == "tcp" {
		return dstress.NewClusterEngine(cfg)
	}
	return dstress.NewSimEngine(cfg)
}

// query runs one query and checks its release. A query that errors or
// fails the check counts as failed; err is non-nil only when the query
// itself errored, which leaves the session unusable.
func (r *runner) query(ctx context.Context, sess *dstress.Session, epsilon float64) (*dstress.Result, time.Duration, bool, error) {
	r.attempted++
	t0 := time.Now()
	res, err := sess.Query(ctx, dstress.QuerySpec{Epsilon: epsilon})
	dur := time.Since(t0)
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
		return nil, dur, false, err
	}
	if err := r.in.check(res.Raw, epsilon); err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "query incorrect: %v\n", err)
		return res, dur, false, nil
	}
	return res, dur, true, nil
}

// gate is the per-run correctness gate: one ε = 0 query, whose release
// the check in query requires to equal RunReference exactly.
func (r *runner) gate(ctx context.Context, sess *dstress.Session) {
	r.query(ctx, sess, 0)
}

// endToEnd is the untraced run: fresh deployments, each timed through
// Open, its first query and its steady queries, until --seconds have
// passed. Every timing is pooled across deployments. The first deployment
// also runs the correctness gate.
func (r *runner) endToEnd(ctx context.Context) {
	eng := r.engine()
	start := time.Now()
	for d := 0; d < minDeployments || time.Since(start) < r.seconds; d++ {
		t0 := time.Now()
		sess, err := eng.Open(ctx, r.in.Job, 0)
		if err != nil {
			r.attempted++
			r.failed++
			fmt.Fprintf(os.Stderr, "open failed: %v\n", err)
			continue
		}
		r.res.add("setup_s", time.Since(t0).Seconds())
		r.deployment(ctx, sess, d == 0)
		sess.Close()
		// Collect the closed deployment's garbage before the next Open, so
		// each deployment's setup and memory peak start from the same heap.
		runtime.GC()
	}
	r.res.add("rss_peak_mb", peakRSSMB())
}

// deployment times the session's first query and its steady queries, then
// runs the correctness gate if asked to.
func (r *runner) deployment(ctx context.Context, sess *dstress.Session, gate bool) {
	_, dur, ok, err := r.query(ctx, sess, queryEpsilon)
	if err != nil {
		return
	}
	if ok {
		r.res.add("first_query_s", dur.Seconds())
	}
	for n := 0; n < steadyPerDeployment; n++ {
		cpu0 := cpuSeconds()
		res, dur, ok, err := r.query(ctx, sess, queryEpsilon)
		if err != nil {
			return
		}
		if !ok {
			continue
		}
		r.res.add("cpu_s_per_query", cpuSeconds()-cpu0)
		r.res.add("query_s", dur.Seconds())
		r.res.add("bytes_per_query", float64(res.Report.TotalBytes())/1e6)
	}
	if gate {
		r.gate(ctx, sess)
	}
}

// traced is the per-layer run: one deployment answering alternating
// untraced and traced queries (alternation keeps drift out of the
// overhead ratio), then the layer probes.
func (r *runner) traced(ctx context.Context) {
	sess, err := r.engine().Open(ctx, r.in.Job, 0)
	if err != nil {
		r.attempted++
		r.failed++
		fmt.Fprintf(os.Stderr, "open failed: %v\n", err)
	} else {
		r.tracedQueries(ctx, sess)
		sess.Close()
	}
	r.probes(ctx)
}

func (r *runner) tracedQueries(ctx context.Context, sess *dstress.Session) {
	if _, _, _, err := r.query(ctx, sess, queryEpsilon); err != nil {
		return
	}
	var plain, traced []float64
	deadline := time.Now().Add(r.seconds)
	for pairs := 0; pairs < steadyPerDeployment || time.Now().Before(deadline); pairs++ {
		res, dur, ok, err := r.query(ctx, sess, queryEpsilon)
		if err != nil {
			return
		}
		if ok {
			plain = append(plain, dur.Seconds())
			r.foldReport(res.Report, dur)
		}
		tr := obs.NewTrace(0)
		_, dur, ok, err = r.query(obs.With(ctx, tr), sess, queryEpsilon)
		if err != nil {
			return
		}
		if ok {
			traced = append(traced, dur.Seconds())
			foldTrace(r.res, tr)
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		r.res.add("obs.overhead_frac", median(traced)/median(plain)-1)
		r.res.notef("untraced query_s median %.4f s over %d queries (traced %.4f s over %d)",
			median(plain), len(plain), median(traced), len(traced))
	}
	r.gate(ctx, sess)
}

// foldReport records the phase times and traffic the engine reports for
// one untraced query that took dur. phase_cover is the share of the
// query's wall time the four phases account for: about 1 on sim, above 1
// on tcp, where each phase is the slowest node's.
func (r *runner) foldReport(rep *dstress.Report, dur time.Duration) {
	r.res.add("vertex.phase_cover", rep.TotalTime().Seconds()/dur.Seconds())
	r.res.add("vertex.init_s", rep.InitTime.Seconds())
	r.res.add("vertex.compute_s", rep.ComputeTime.Seconds())
	r.res.add("vertex.transfer_s", rep.CommTime.Seconds())
	r.res.add("vertex.agg_s", rep.AggTime.Seconds())
	r.res.add("vertex.node_bytes_max", float64(rep.MaxNodeBytes)/1e6)
	r.res.add("cluster.compute_skew", computeSkew(rep))
}

// computeSkew is the slowest node's compute time over the median node's.
// A sim report has no per-node table — one process plays every node
// against one clock — so its skew is 1 by construction.
func computeSkew(rep *dstress.Report) float64 {
	if len(rep.NodePhases) == 0 {
		return 1
	}
	ts := make([]float64, len(rep.NodePhases))
	for i, np := range rep.NodePhases {
		ts[i] = np.ComputeTime.Seconds()
	}
	sort.Float64s(ts)
	med := median(ts)
	if med == 0 {
		return 1
	}
	return ts[len(ts)-1] / med
}

// cpuSeconds is the process's user+sys CPU time so far. In both backends
// the whole fleet runs in this process, so it covers every node.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
