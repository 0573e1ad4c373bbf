// dstress-node runs one DStress participant as a real network daemon, or —
// in coordinator mode — the control plane that drives a fleet of them
// through a full privacy-preserving systemic-risk computation over TCP.
//
// A local 4-bank cluster (5 processes, loopback TCP):
//
//	dstress-node -mode coordinator -listen 127.0.0.1:7000 -model en -n 4 -k 1 -d 2 &
//	for i in 1 2 3 4; do
//	    dstress-node -id $i -coord 127.0.0.1:7000 -listen 127.0.0.1:0 &
//	done
//	wait
//
// On a real fleet each node runs on its own machine with -listen set to a
// routable address (and -advertise if behind NAT); only the coordinator
// address must be known up front — the node directory is distributed by the
// control plane, as the trusted party's signed node list would be (§3.4).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	_ "net/http/pprof" // registered on the DefaultServeMux the -pprof server uses
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"

	"dstress/internal/cluster"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/vertex"
)

func main() {
	var (
		mode      = flag.String("mode", "node", "role: node or coordinator")
		id        = flag.Int("id", 0, "node id (node mode; node i owns vertex i-1)")
		coord     = flag.String("coord", "127.0.0.1:7000", "coordinator control-plane address (node mode)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address: data plane in node mode, control plane in coordinator mode")
		advertise = flag.String("advertise", "", "address peers should dial if it differs from -listen (node mode)")

		// Coordinator-mode scenario flags (mirroring dstress-run).
		model     = flag.String("model", "en", "risk model: en or egj (coordinator mode)")
		n         = flag.Int("n", 4, "number of banks = number of nodes (coordinator mode)")
		core      = flag.Int("core", 2, "core size of the core-periphery topology")
		d         = flag.Int("d", 2, "public degree bound D")
		k         = flag.Int("k", 1, "collusion bound k (blocks of k+1)")
		iters     = flag.Int("iters", 0, "iterations (0 = log2 N)")
		shock     = flag.Int("shock", 1, "number of core banks whose reserves are wiped")
		epsilon   = flag.Float64("epsilon", 0.23, "output privacy budget (0 disables noise)")
		alpha     = flag.Float64("alpha", 0.9, "transfer-noise parameter in [0,1)")
		groupName = flag.String("group", "modp256", "crypto group: p256, p384, modp256")
		aggFanIn  = flag.Int("agg-fanin", 0, "aggregation-tree fan-in (0 = flat aggregation)")
		seed      = flag.Int64("seed", 42, "synthetic network seed")
		timeout   = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no deadline)")

		// Health-plane flags. -health is node mode; the rest are
		// coordinator mode.
		recoverOn    = flag.Bool("recover", false, "enable failure recovery (coordinator mode): nodes checkpoint shares at phase barriers, and when one dies the fleet re-blocks around it and the query resumes instead of failing")
		chaosBarrier = flag.Int("chaos-barrier", -1, "deterministic fault injection (node mode): exit the process with code 137 right after finishing the compute step of this iteration of the first query (-1 = off)")

		healthAddr  = flag.String("health", "", "serve GET /healthz on this address (node mode; 200 while serving, 503 once draining; empty = off)")
		heartbeat   = flag.Duration("heartbeat", 0, "fleet heartbeat interval (coordinator mode; 0 = 1s default)")
		stallWindow = flag.Duration("stall-window", 0, "flag an in-flight query as stalled after this long without phase progress (coordinator mode; 0 = 30s default)")
		flightDump  = flag.String("flight-dump", "", "on query failure, write the flight-recorder post-mortem JSON here (coordinator mode)")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	flag.Parse()

	setupLogging(*logLevel)
	startPprof(*pprofAddr)

	// Ctrl-C / SIGTERM cancels the root context: the node (or the whole
	// coordinated run) aborts cleanly — blocked protocol receives unwind
	// with an error — instead of peers discovering the death via failure
	// detection.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fatal := func(msg string, args ...any) {
		if errors.Is(ctx.Err(), context.Canceled) {
			args = append(args, "interrupted", true)
		}
		slog.Error(msg, args...)
		os.Exit(1)
	}

	switch *mode {
	case "node":
		if *id < 1 {
			fatal("node mode needs -id ≥ 1")
		}
		startHealth(ctx, *healthAddr)
		opts := cluster.NodeOptions{
			ID:            network.NodeID(*id),
			CoordAddr:     *coord,
			ListenAddr:    *listen,
			AdvertiseAddr: *advertise,
		}
		if *chaosBarrier >= 0 {
			nodeID := *id
			opts.Chaos = &vertex.Chaos{
				Barrier: *chaosBarrier,
				Kill: func() {
					slog.Warn("chaos: exiting process", "node", nodeID)
					os.Exit(137)
				},
			}
		}
		res, err := cluster.RunNode(ctx, opts)
		if err != nil {
			fatal("node failed", "node", *id, "err", err)
		}
		slog.Info("node done", "node", *id,
			"bytes_sent", res.Stats.BytesSent, "msgs_sent", res.Stats.MessagesSent,
			"total_ms", res.Report.TotalTime().Milliseconds())
		if res.HasResult {
			fmt.Printf("node %d (aggregation member) released aggregate: %d\n", *id, res.Result)
		}

	case "coordinator":
		sc, exactTDS, err := cluster.BuildSynthetic(cluster.SyntheticOptions{
			Model: *model, N: *n, Core: *core, D: *d, K: *k,
			Iterations: *iters, Shock: *shock, Epsilon: *epsilon, Alpha: *alpha,
			Group: *groupName, Seed: *seed, AggFanIn: *aggFanIn,
		})
		if err != nil {
			fatal("building scenario", "err", err)
		}
		sc.Recover = *recoverOn
		co, err := cluster.NewCoordinator(*listen, sc)
		if err != nil {
			fatal("starting coordinator", "err", err)
		}
		if *heartbeat > 0 {
			co.HeartbeatInterval = *heartbeat
		}
		if *stallWindow > 0 {
			co.StallWindow = *stallWindow
		}
		slog.Info("coordinator waiting for nodes", "addr", co.Addr(), "nodes", sc.Graph.N(),
			"model", *model, "n", *n, "d", *d, "k", *k, "iterations", sc.Iterations,
			"epsilon", *epsilon, "alpha", *alpha)
		sum, err := co.Run(ctx)
		if err != nil {
			writeFlightDump(*flightDump, err)
			fatal("coordinator run failed", "err", err)
		}
		released := cluster.DecodeDollars(sc, sum.Result)
		reference := referenceDollars(sc)
		writeRunDump(*flightDump, sum, released, reference, exactTDS)
		// The trusted baseline is the exact circuits the MPC evaluates, run
		// in plaintext for the same I: at ε = 0 the release equals it. The
		// converged solver differs from it by iteration truncation alone.
		tds := func(label string, dollars float64, note string) {
			fmt.Printf("%-40s $%.2fM%s\n", label+":", dollars/1e6, note)
		}
		tds(fmt.Sprintf("reference TDS (trusted baseline, I=%d)", sc.Iterations), reference, "")
		tds(fmt.Sprintf("released TDS (ε=%v)", *epsilon), released,
			fmt.Sprintf("  (noise %+.2fM)", (released-reference)/1e6))
		tds("converged solver TDS", exactTDS,
			fmt.Sprintf("  (truncation at I=%d: %+.2fM)", sc.Iterations, (reference-exactTDS)/1e6))
		if sum.Recoveries > 0 {
			fmt.Printf("recoveries: survived %d node death(s) by re-blocking\n", sum.Recoveries)
		}
		fmt.Printf("\nwall time %v, cluster traffic %.1f KB (per node: avg %.1f KB, max %.1f KB)\n",
			sum.WallTime.Round(1e6), float64(sum.TotalBytes())/1024,
			sum.AvgNodeBytes()/1024, float64(sum.MaxNodeBytes())/1024)
		fmt.Printf("\nnode   init         compute      transfer     agg+noise    sent bytes\n")
		ids := make([]int, 0, len(sum.Reports))
		for nodeID := range sum.Reports {
			ids = append(ids, int(nodeID))
		}
		sort.Ints(ids)
		for _, nodeID := range ids {
			rep := sum.Reports[network.NodeID(nodeID)]
			st := sum.Stats[network.NodeID(nodeID)]
			fmt.Printf("%-5d  %-11v  %-11v  %-11v  %-11v  %d\n",
				nodeID, rep.InitTime.Round(1e6), rep.ComputeTime.Round(1e6),
				rep.CommTime.Round(1e6), rep.AggTime.Round(1e6), st.BytesSent)
		}
		// Every phase barriers on the protocol's own communication, so
		// each phase's wall time is its slowest node's.
		fmt.Printf("\nslowest node per phase:")
		folded := vertex.FoldReports(sum.Reports, sum.Stats)
		for _, l := range folded.SlowestNodes() {
			fmt.Printf(" %s=%d (%v)", l.Phase, l.Node, l.Time.Round(1e6))
		}
		fmt.Println()

	default:
		fatal("unknown -mode (want node or coordinator)", "mode", *mode)
	}
}

// setupLogging installs a text slog handler at the requested level as the
// process-wide default (internal/cluster logs through slog too).
func setupLogging(level string) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "invalid -log-level %q (want debug, info, warn, or error)\n", level)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
}

// startHealth serves GET /healthz on its own listener when addr is set:
// 200 "ok" while the node is serving, 503 "draining" once the root context
// is canceled (SIGTERM / timeout) — the same contract dstress-serve's
// /healthz keeps, so one probe config covers both daemons.
func startHealth(ctx context.Context, addr string) {
	if addr == "" {
		return
	}
	var draining atomic.Bool
	context.AfterFunc(ctx, func() { draining.Store(true) })
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	go func() {
		slog.Info("health endpoint listening", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			slog.Error("health server failed", "err", err)
		}
	}()
}

// referenceDollars is the plaintext reference of the scenario's
// fixed-point iterative program at its iteration count — an ε=0 run must
// equal it to the bit — or NaN when it cannot be computed.
func referenceDollars(sc cluster.Scenario) float64 {
	prog, err := sc.Prog.Build()
	if err != nil {
		return math.NaN()
	}
	raw, err := vertex.RunReference(prog, sc.Graph, sc.Iterations)
	if err != nil {
		return math.NaN()
	}
	return cluster.DecodeDollars(sc, raw)
}

// writeRunDump writes the success-path run record as JSON when
// -flight-dump names a path: the released value, two baselines, and the
// recovery count and re-blocking timeline, so an external harness (the CI
// recovery-smoke job) can assert that a killed node was recovered and the
// ε=0 result still decodes exactly. reference_dollars is the plaintext
// reference (referenceDollars); exact_dollars is the continuous solver's
// baseline, which the bounded-iteration program only approximates.
func writeRunDump(path string, sum *cluster.Summary, released, reference, exact float64) {
	if path == "" {
		return
	}
	dump := struct {
		Recoveries       int               `json:"recoveries"`
		ResultDollars    float64           `json:"result_dollars"`
		ReferenceDollars float64           `json:"reference_dollars"`
		ExactDollars     float64           `json:"exact_dollars"`
		Events           []obs.FlightEvent `json:"events"`
	}{sum.Recoveries, released, reference, exact, sum.RecoveryEvents}
	if dump.Events == nil {
		dump.Events = []obs.FlightEvent{}
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		slog.Error("encoding run dump", "err", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		slog.Error("writing run dump", "path", path, "err", err)
		return
	}
	slog.Info("run dump written", "path", path, "recoveries", sum.Recoveries)
}

// writeFlightDump writes the health plane's post-mortem (dead node, last
// completed phase, flight-recorder tail) as JSON when the failed run
// produced one and -flight-dump names a path.
func writeFlightDump(path string, err error) {
	if path == "" {
		return
	}
	var qe *cluster.QueryError
	if !errors.As(err, &qe) {
		slog.Warn("no flight recorder data for this failure", "err", err)
		return
	}
	data, derr := qe.Dump()
	if derr != nil {
		slog.Error("encoding flight dump", "err", derr)
		return
	}
	if werr := os.WriteFile(path, data, 0o644); werr != nil {
		slog.Error("writing flight dump", "path", path, "err", werr)
		return
	}
	slog.Info("flight dump written", "path", path, "node", int(qe.Node), "last_phase", qe.LastPhase)
}

// startPprof serves net/http/pprof on its own listener when addr is set —
// opt-in, and never on the protocol or API ports.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		slog.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			slog.Error("pprof server failed", "err", err)
		}
	}()
}
