// Command perfbench is the DStress benchmark. It runs one named workload
// against the public dstress engine API — one client, one query in
// flight, closed loop — checks every released value, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 they are the per-layer ones, from a separate traced run plus
// probes that time the benchmark's own calls into each module. Run it
// through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload en-sim --seed 1 --seconds 24 --trace 0
//
// See README.md beside this file for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "en-sim", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed for topology and balance-sheet generation")
		seconds = flag.Int("seconds", 24, "seconds to measure: deployments are opened until they pass (trace 0), or traced and untraced queries alternate for them (trace 1)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and probes")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// resultLine is the benchmark's machine-readable output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func run(out io.Writer, name string, seed int64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	in, err := w.makeInputs(seed)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	r := &runner{w: w, in: in, seconds: time.Duration(seconds) * time.Second, res: newResult()}
	ctx := context.Background()

	defs := endToEndMetrics
	if trace == 1 {
		defs = perLayerMetrics
		r.traced(ctx)
	} else {
		r.endToEnd(ctx)
	}
	if r.attempted == 0 {
		return fmt.Errorf("no query was attempted")
	}
	r.describe(seed)

	fmt.Fprintf(out, "workload %s  seed %d  trace %d\n", w.Name, seed, trace)
	r.res.printTable(out, defs)
	fmt.Fprintf(out, "%-28s %14.6g %-6s (%d of %d queries)\n", "fail_frac",
		float64(r.failed)/float64(r.attempted), "frac", r.failed, r.attempted)
	for _, e := range r.probeErrs {
		fmt.Fprintln(out, "# probe failed: "+e)
	}
	missing := r.res.missing(defs)
	if len(missing) > 0 {
		fmt.Fprintln(out, "# not measured: "+strings.Join(missing, ", "))
	}
	line, err := json.Marshal(resultLine{
		Correct:   r.failed == 0 && len(r.probeErrs) == 0 && len(missing) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.res.summary(defs),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// describe records the workload's shape and the host in the report, so a
// later change can state its win as an exact count as well as a time.
func (r *runner) describe(seed int64) {
	w := r.w
	r.res.notef("workload %s: backend %s program %s group p256 N=%d core=%d D=%d k=%d I=%d ε=%v α=%v ot=iknp seed=%d",
		w.Name, w.Backend, w.Program, w.N, w.Core, w.D, w.K, w.Iters, queryEpsilon, transferAlpha, seed)
	if upd, err := r.in.Program.UpdateCircuit(w.D); err == nil {
		r.res.notef("update circuit: depth %d, %d ANDs", upd.Depth(), upd.NumAnd)
	}
	r.res.notef("host: NumCPU %d, GOMAXPROCS %d, %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
