// dstress-run executes one privacy-preserving systemic-risk computation
// end-to-end on a synthetic banking network and prints the released result
// and an execution report.
//
// Usage:
//
//	dstress-run -model en -n 20 -core 4 -d 6 -k 2 -shock 2 -epsilon 0.23
//	dstress-run -model egj -n 16 -group p256 -ot iknp
//	dstress-run -model en -n 8 -transport tcp -timeout 2m
//	dstress-run -model en -n 32 -aggfanin 8
//	dstress-run -model en -n 8 -transport tcp -trace trace.json
//
// -trace writes a Chrome trace-event file of the run (load it in Perfetto
// or chrome://tracing): per-iteration compute/communicate spans, per-block
// GMW spans, transfer and aggregation spans, one process row per node
// (each participant records its own span table).
//
// -transport selects the execution backend behind the same dstress.Engine
// API: sim (default) runs one protocol participant per node in this
// process against the in-memory hub; tcp stands up a real cluster on loopback TCP — a
// coordinator plus one daemon per bank, each with its own tcpnet peer —
// and runs the identical experiment through it. The report is printed
// identically for both. -timeout aborts a wedged run through the context
// plumbing instead of hanging forever. For a multi-machine deployment use
// cmd/dstress-node directly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dstress"
	"dstress/internal/group"
	"dstress/internal/obs"
)

func main() {
	var (
		model     = flag.String("model", "en", "risk model: en (Eisenberg-Noe) or egj (Elliott-Golub-Jackson)")
		n         = flag.Int("n", 16, "number of banks")
		core      = flag.Int("core", 4, "core size of the core-periphery topology")
		d         = flag.Int("d", 6, "public degree bound D")
		k         = flag.Int("k", 2, "collusion bound k (blocks of k+1)")
		iters     = flag.Int("iters", 0, "iterations (0 = log2 N)")
		shock     = flag.Int("shock", 2, "number of core banks whose reserves are wiped")
		epsilon   = flag.Float64("epsilon", 0.23, "output privacy budget for this query (0 disables noise)")
		alpha     = flag.Float64("alpha", 0.9, "transfer-noise parameter in [0,1)")
		groupName = flag.String("group", "modp256", "crypto group: p256, p384, modp256")
		otMode    = flag.String("ot", "dealer", "OT provisioning: dealer or iknp (sim only; tcp always uses iknp)")
		aggFanIn  = flag.Int("aggfanin", 0, "aggregation-tree fan-in (0 = flat single-block aggregation)")
		seed      = flag.Int64("seed", 42, "synthetic network seed")
		transport = flag.String("transport", "sim", "execution transport: sim (in-process hub) or tcp (loopback cluster of real daemons)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (Perfetto-loadable)")

		heartbeat   = flag.Duration("heartbeat", 0, "fleet heartbeat interval (tcp only; 0 = 1s default)")
		stallWindow = flag.Duration("stall-window", 0, "flag the query as stalled after this long without phase progress (tcp only; 0 = 30s default)")
		flightDump  = flag.String("flight-dump", "", "on query failure, write the flight-recorder post-mortem JSON here (tcp only)")

		recoverOn    = flag.Bool("recover", false, "enable failure recovery: checkpoint shares at phase barriers, re-block around a dead node and resume the query instead of failing")
		chaosNode    = flag.Int("chaos-node", 0, "deterministic fault injection: kill this node right after the compute step of iteration -chaos-barrier (0 = off)")
		chaosBarrier = flag.Int("chaos-barrier", 0, "iteration whose compute step triggers the -chaos-node kill")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the root context: every blocked protocol
	// receive unwinds with an error and the run aborts cleanly instead of
	// peers discovering the death via failure detection.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := group.ByName(*groupName)
	if err != nil {
		log.Fatal(err)
	}
	var om dstress.OTMode
	switch *otMode {
	case "dealer":
		om = dstress.OTDealer
	case "iknp":
		om = dstress.OTIKNP
	default:
		log.Fatalf("unknown -ot %q", *otMode)
	}
	if *iters == 0 {
		*iters = dstress.RecommendedIterations(*n)
	}

	// --- Build the synthetic scenario (identical for both transports). ---
	top, err := dstress.CorePeriphery(dstress.CorePeripheryParams{
		N: *n, Core: *core, D: *d, PeriLink: 2, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	shocked := make([]int, *shock)
	for i := range shocked {
		shocked[i] = i
	}

	spec := dstress.ProgramSpec{Kind: *model, Width: 32, Unit: 1e6, GranularityDollars: 1e6, Leverage: 0.1}
	cfg := dstress.CircuitConfig{Width: spec.Width, Unit: spec.Unit}
	// converged is the continuous solver run to convergence (4N
	// iterations); the MPC computes the same rule truncated at I
	// iterations, so the two differ by iteration truncation alone.
	var graph *dstress.Graph
	var converged float64
	switch *model {
	case "en":
		net := dstress.BuildEN(top, dstress.ENParams{
			CoreCash: 60e6, PeriCash: 5e6, CoreSize: *core, DebtScale: 30e6, Seed: *seed,
		})
		net.ApplyCashShock(shocked, 0)
		converged = dstress.SolveEN(net, 4**n, 1e-9).TDS
		graph, err = dstress.ENGraph(net, cfg, *d)
	case "egj":
		net := dstress.BuildEGJ(top, dstress.EGJParams{
			CoreBase: 60e6, PeriBase: 8e6, CoreSize: *core,
			HoldingFrac: 0.15, ThresholdFrac: 0.9, PenaltyFrac: 0.25, Seed: *seed,
		})
		net.ApplyBaseShock(shocked, 0.3)
		converged = dstress.SolveEGJ(net, 4**n).TDS
		graph, err = dstress.EGJGraph(net, cfg, *d)
	default:
		log.Fatalf("unknown -model %q", *model)
	}
	if err != nil {
		log.Fatal(err)
	}
	// The trusted baseline: the exact circuits the MPC evaluates, run in
	// plaintext for the same I. At ε = 0 the release equals it exactly.
	prog, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	refRaw, err := dstress.RunReference(prog, graph, *iters)
	if err != nil {
		log.Fatal(err)
	}
	reference := cfg.Decode(refRaw)

	// --- Pick the engine: the job is the same either way. ---
	econf := dstress.EngineConfig{
		Group: g, K: *k, Alpha: *alpha, OTMode: om, AggFanIn: *aggFanIn,
		HeartbeatInterval: *heartbeat, StallWindow: *stallWindow,
		Recover: *recoverOn, ChaosNode: *chaosNode, ChaosBarrier: *chaosBarrier,
	}
	var eng dstress.Engine
	switch *transport {
	case "sim":
		eng = dstress.NewSimEngine(econf)
	case "tcp":
		// Cluster runs provision OTs with IKNP only (a dealer broker is an
		// in-process object and cannot span machines); reject an explicit
		// conflicting choice rather than silently mislabeling measurements.
		otExplicit := false
		flag.Visit(func(f *flag.Flag) { otExplicit = otExplicit || f.Name == "ot" })
		if otExplicit && *otMode != "iknp" {
			log.Fatalf("-transport tcp always uses IKNP OTs; -ot %q is not available on a cluster", *otMode)
		}
		eng = dstress.NewClusterEngine(econf)
	default:
		log.Fatalf("unknown -transport %q (want sim or tcp)", *transport)
	}

	fmt.Fprintf(os.Stderr, "running %s on %s: N=%d D=%d k=%d I=%d group=%s ε=%v α=%v aggfanin=%d\n",
		*model, *transport, *n, *d, *k, *iters, g.Name(), *epsilon, *alpha, *aggFanIn)

	// -trace arms the observability plumbing: the driver's spans (sim) or
	// the nodes' shipped span tables (tcp) accumulate on this trace.
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace(0)
		ctx = obs.With(ctx, tr)
	}

	res, err := eng.Run(ctx, dstress.Job{
		Spec: &spec, Graph: graph, Iterations: *iters, Epsilon: *epsilon,
		Decode: cfg.Decode,
	})
	if err != nil {
		writeFlightDump(*flightDump, err)
		if errors.Is(ctx.Err(), context.Canceled) {
			log.Fatalf("interrupted: run aborted cleanly (%v)", err)
		}
		log.Fatal(err)
	}

	tds := func(label string, dollars float64, note string) {
		fmt.Printf("%-40s $%.2fM%s\n", label+":", dollars/1e6, note)
	}
	tds(fmt.Sprintf("reference TDS (trusted baseline, I=%d)", *iters), reference, "")
	tds(fmt.Sprintf("released TDS (ε=%v)", *epsilon), res.Value,
		fmt.Sprintf("  (noise %+.2fM)", (res.Value-reference)/1e6))
	tds(fmt.Sprintf("converged solver TDS (%d iterations)", 4**n), converged,
		fmt.Sprintf("  (truncation at I=%d: %+.2fM)", *iters, (reference-converged)/1e6))
	fmt.Println()
	printReport(res.Report)

	if tr != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load in Perfetto or chrome://tracing)\n",
			len(tr.Spans()), *traceOut)
	}
}

// writeFlightDump writes the cluster health plane's post-mortem (dead
// node, last completed phase, flight-recorder tail) as JSON when the
// failure produced one and -flight-dump names a path.
func writeFlightDump(path string, err error) {
	if path == "" {
		return
	}
	var qe *dstress.QueryError
	if !errors.As(err, &qe) {
		fmt.Fprintf(os.Stderr, "no flight recorder data for this failure\n")
		return
	}
	data, derr := qe.Dump()
	if derr != nil {
		fmt.Fprintf(os.Stderr, "encoding flight dump: %v\n", derr)
		return
	}
	if werr := os.WriteFile(path, data, 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "writing flight dump: %v\n", werr)
		return
	}
	fmt.Fprintf(os.Stderr, "flight dump written to %s (node %d, last phase %q)\n",
		path, int(qe.Node), qe.LastPhase)
}

// printReport renders the unified report — the same table regardless of
// transport.
func printReport(rep *dstress.Report) {
	round := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	fmt.Printf("transport %s, %d nodes, wall time %v\n\n", rep.Transport, rep.Nodes, round(rep.WallTime))
	fmt.Printf("phase       time          bytes\n")
	fmt.Printf("init        %-12v  %d\n", round(rep.InitTime), rep.InitBytes)
	fmt.Printf("compute     %-12v  %d\n", round(rep.ComputeTime), rep.ComputeBytes)
	fmt.Printf("transfer    %-12v  %d\n", round(rep.CommTime), rep.CommBytes)
	fmt.Printf("agg+noise   %-12v  %d\n", round(rep.AggTime), rep.AggBytes)
	fmt.Printf("total       %-12v  %d\n", round(rep.TotalTime()), rep.TotalBytes())
	fmt.Printf("\nupdate circuit: %d AND gates; aggregate: %d AND gates\n", rep.UpdateAndGates, rep.AggAndGates)
	if rep.Recoveries > 0 {
		fmt.Printf("recoveries: survived %d node death(s) by re-blocking (deepest replay %d barriers)\n",
			rep.Recoveries, rep.ReplayedBarriers)
	}
	fmt.Printf("traffic per node: avg %.1f KB, max %.1f KB\n",
		rep.AvgNodeBytes/1024, float64(rep.MaxNodeBytes)/1024)

	// Both backends carry the per-node table behind the folded numbers:
	// print it, and name the straggler whose wall time each phase shows.
	if len(rep.NodePhases) > 0 {
		fmt.Printf("\nnode   init          compute       transfer      agg+noise\n")
		for _, np := range rep.NodePhases {
			fmt.Printf("%-5d  %-12v  %-12v  %-12v  %-12v\n",
				np.Node, round(np.InitTime), round(np.ComputeTime),
				round(np.CommTime), round(np.AggTime))
		}
		fmt.Printf("\nslowest node per phase:")
		for _, l := range rep.SlowestNodes() {
			fmt.Printf(" %s=%d (%v)", l.Phase, l.Node, round(l.Time))
		}
		fmt.Println()
	}
}
