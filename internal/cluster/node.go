package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"math/big"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
	"dstress/internal/secretshare"
	"dstress/internal/tcpnet"
	"dstress/internal/transfer"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// NodeOptions configure one node daemon.
type NodeOptions struct {
	// ID is this node's identity; node i owns vertex i-1.
	ID network.NodeID
	// CoordAddr is the coordinator's control-plane address.
	CoordAddr string
	// ListenAddr is the data-plane listen address ("127.0.0.1:0" picks an
	// ephemeral loopback port).
	ListenAddr string
	// AdvertiseAddr, when set, is the address peers dial instead of the
	// literal listen address (NAT / container setups).
	AdvertiseAddr string
	// DialWindow bounds how long the initial coordinator dial retries when
	// the context carries no deadline of its own (fleet launchers routinely
	// start node processes before the coordinator's listener is up).
	// 0 means 10 seconds.
	DialWindow time.Duration
	// Chaos, when set, injects one deterministic fault: see NodeChaos.
	Chaos *NodeChaos
}

// NodeChaos is the deterministic fault-injection harness: the first time
// any first-attempt run on this node finishes the compute step of
// iteration Barrier, Kill is invoked and the run blocks until its context
// dies. Kill is the failure mode — cancel a context for an in-process
// crash, or exit the process to mimic kill -9. Firing at a barrier (not
// after a sleep) makes the kill reproducible regardless of host speed.
type NodeChaos struct {
	Barrier int
	Kill    func()
}

// runHandle tracks one in-flight run so a recovery can cancel and
// supersede it: a superseded run's exit is swallowed entirely — no done
// report, no fatal error — because a fresh attempt replaces it.
type runHandle struct {
	cancel     context.CancelFunc
	done       chan struct{}
	attempt    int
	superseded bool
}

// runReq is one run invocation: the archived or dispatched job, the
// attempt number (1 for a coordinator dispatch), and the barrier to resume
// from (−1 runs from initialization).
type runReq struct {
	job         jobMsg
	attempt     int
	fromBarrier int
}

// jobProgress is a node's live position in one in-flight job: the last
// phase entered and a monotone advance counter the stall watchdog keys on.
type jobProgress struct {
	phase string
	steps int64
}

// NodeResult is what a node learns from a run.
type NodeResult struct {
	// Result is the opened noised aggregate; only aggregation-block members
	// have it (HasResult).
	Result    int64
	HasResult bool
	Report    vertex.Report
	Stats     network.Stats
}

// RunNode executes one participant: register with the coordinator, then
// serve the standing session — run every role node ID plays in each
// dispatched query, report back, and wait for the next job — until the
// coordinator sends a shutdown, the control connection dies, or ctx is
// canceled. It returns the last completed query's result.
func RunNode(ctx context.Context, opt NodeOptions) (*NodeResult, error) {
	if opt.ID < 1 {
		return nil, fmt.Errorf("cluster: node id %d must be ≥ 1", opt.ID)
	}
	peer, err := tcpnet.Listen(opt.ID, opt.ListenAddr)
	if err != nil {
		return nil, err
	}
	defer peer.Close()

	conn, err := dialRetry(ctx, opt.CoordAddr, opt.DialWindow)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing coordinator %s: %w", opt.CoordAddr, err)
	}
	defer conn.Close()
	// ctlCtx governs everything this daemon does: it ends when the caller
	// cancels, when the control connection dies, or when RunNode returns.
	ctlCtx, ctlCancel := context.WithCancel(ctx)
	defer ctlCancel()
	// On cancellation, close the control connection (releases blocked gob
	// decodes — the registration handshake included) and the data plane
	// (releases writes; reads are already ctx-aware).
	stop := context.AfterFunc(ctlCtx, func() {
		conn.Close()
		peer.Close()
	})
	defer stop()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)

	adv := opt.AdvertiseAddr
	if adv == "" {
		adv = peer.Addr()
	}
	if err := enc.Encode(helloMsg{ID: opt.ID, DataAddr: adv}); err != nil {
		return nil, fmt.Errorf("cluster: hello: %w", err)
	}
	var pm paramsMsg
	if err := dec.Decode(&pm); err != nil {
		return nil, fmt.Errorf("cluster: reading params: %w", err)
	}
	grp, err := group.ByName(pm.Group)
	if err != nil {
		return nil, err
	}
	tpParams := trustedparty.Params{Group: grp, K: pm.K, D: pm.D, L: pm.L}
	reg, secrets, err := trustedparty.RegisterNode(tpParams, opt.ID)
	if err != nil {
		return nil, err
	}
	if err := enc.Encode(regMsg{Reg: trustedparty.MarshalRegistration(grp, reg)}); err != nil {
		return nil, fmt.Errorf("cluster: sending registration: %w", err)
	}

	// Jobs overlap: each runs in its own goroutine against per-query state
	// (the engine keys share registers and GMW sessions by job.Seq), while
	// the engine itself — substrate, caches, setup — stands for the whole
	// session. encMu serializes control-plane encodes (done reports and
	// heartbeat replies) on the shared connection; any job failure is fatal
	// for the daemon (fail-stop). The health-plane state — live trace map,
	// per-job progress, the flight-recorder ring every job's trace feeds —
	// is declared before the decoder goroutine because heartbeats read it.
	flight := obs.NewFlight(0)
	var (
		eng        *engine
		inflight   sync.WaitGroup
		encMu      sync.Mutex
		stateMu    sync.Mutex
		last       *NodeResult
		fatalErr   error
		liveTraces = make(map[int]*obs.Trace)
		progress   = make(map[int]*jobProgress)
		runs       = make(map[int]*runHandle)
	)
	send := func(m nodeMsg) error {
		encMu.Lock()
		defer encMu.Unlock()
		return enc.Encode(m)
	}
	buildBeat := func(t1 int64) *beatMsg {
		t2 := time.Now().UnixNano()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b := &beatMsg{
			ID: opt.ID, T1: t1, T2: t2,
			Goroutines: runtime.NumGoroutine(),
			HeapBytes:  ms.HeapAlloc,
			GCPauseNS:  ms.PauseTotalNs,
			Flight:     flight.DrainNew(),
		}
		stateMu.Lock()
		if eng != nil {
			b.Handshakes = eng.sub.Handshakes()
		}
		for seq, p := range progress {
			b.Progress = append(b.Progress, queryProgress{Seq: seq, Phase: p.phase, Steps: p.steps})
		}
		for _, tr := range liveTraces {
			b.Open = append(b.Open, tr.Live()...)
		}
		stateMu.Unlock()
		sort.Slice(b.Progress, func(i, j int) bool { return b.Progress[i].Seq < b.Progress[j].Seq })
		b.T3 = time.Now().UnixNano()
		return b
	}

	// The decoder goroutine owns the control connection's read side,
	// answering heartbeat pings inline and handing jobs to the main loop.
	// When it fails — the coordinator closed the connection, which it does
	// as soon as any node reports a failure — it cancels ctlCtx, which
	// aborts any in-flight query and releases every blocked data-plane
	// Recv, so this daemon fails fast even when a dead peer never dialed us
	// (tcpnet's per-sender release covers only established inbound
	// connections).
	ctlCh := make(chan ctrlMsg)
	go func() {
		defer close(ctlCh)
		for {
			var m ctrlMsg
			if err := dec.Decode(&m); err != nil {
				ctlCancel()
				return
			}
			if m.Ping != nil {
				if err := send(nodeMsg{Beat: buildBeat(m.Ping.T1)}); err != nil {
					ctlCancel()
					return
				}
				continue
			}
			if m.Job == nil && m.Recover == nil {
				continue
			}
			select {
			case ctlCh <- m:
			case <-ctlCtx.Done():
				return
			}
		}
	}()

	setFatal := func(err error) {
		stateMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		stateMu.Unlock()
		ctlCancel()
	}
	runOne := func(req runReq) {
		defer inflight.Done()
		job := req.job
		runCtx, runCancel := context.WithCancel(ctlCtx)
		defer runCancel()
		h := &runHandle{cancel: runCancel, done: make(chan struct{}), attempt: req.attempt}
		defer close(h.done)
		// Nodes always record: a per-job trace is a few hundred spans and
		// ships over the control plane only after the query, so the data
		// plane never pays for it. The coordinator decides what to do with
		// the tables (straggler attribution, -trace export). While the job
		// runs, the trace is also live: heartbeats snapshot its open spans,
		// and the attached flight recorder retains the recent event tail
		// for the failure path.
		trace := obs.NewTrace(int32(opt.ID))
		trace.AttachFlight(flight)
		var qtag string
		if job.Seq > 0 {
			qtag = network.Tag("q", job.Seq)
			trace.SetQuery(qtag)
		}
		// "dispatched" counts as the first step: a node that dies during
		// engine setup — before the protocol's first ReportProgress — still
		// ships a phase the post-mortem can name, instead of an empty one.
		prog := &jobProgress{phase: "dispatched", steps: 1}
		stateMu.Lock()
		liveTraces[job.Seq] = trace
		progress[job.Seq] = prog
		runs[job.Seq] = h
		stateMu.Unlock()
		flight.Record(obs.FlightEvent{
			At: time.Now().UnixNano(), Kind: "phase", Name: "dispatched",
			Query: qtag, Node: int32(opt.ID),
		})
		jobCtx := obs.With(runCtx, trace)
		jobCtx = obs.WithProgress(jobCtx, func(phase string) {
			stateMu.Lock()
			prog.phase = phase
			prog.steps++
			stateMu.Unlock()
			// A phase entry is protocol activity in its own right: spans
			// only reach the ring when they end, so a node killed deep
			// inside one long phase would otherwise leave an empty ring.
			flight.Record(obs.FlightEvent{
				At: time.Now().UnixNano(), Kind: "phase", Name: phase,
				Query: qtag, Node: int32(opt.ID),
			})
		})
		slog.Debug("cluster job received",
			"node", opt.ID, "query", job.Seq, "attempt", req.attempt, "iterations", job.Iterations)
		var res NodeResult
		runErr := eng.runJob(jobCtx, req, &res)
		stateMu.Lock()
		lastPhase := prog.phase
		delete(liveTraces, job.Seq)
		delete(progress, job.Seq)
		if runs[job.Seq] == h {
			delete(runs, job.Seq)
		}
		superseded := h.superseded
		stateMu.Unlock()
		if superseded {
			// A recovery canceled this attempt; a resumed attempt replaces
			// it, so neither its error nor a report reaches the coordinator.
			slog.Debug("cluster job superseded by recovery",
				"node", opt.ID, "query", job.Seq, "attempt", req.attempt)
			return
		}
		done := doneMsg{
			ID: opt.ID, Seq: job.Seq, Attempt: req.attempt,
			HasResult: res.HasResult, Result: res.Result,
			Report: res.Report, Stats: res.Stats,
			Spans: trace.Spans(), Counters: trace.Counters(),
			Epoch: trace.Epoch().UnixNano(), LastPhase: lastPhase,
		}
		if runErr != nil {
			done.Err = runErr.Error()
			done.Flight = flight.Events()
			slog.Error("cluster job failed", "node", opt.ID, "query", job.Seq, "error", runErr)
		} else {
			slog.Debug("cluster job done",
				"node", opt.ID, "query", job.Seq,
				"init_ms", res.Report.InitTime.Milliseconds(),
				"compute_ms", res.Report.ComputeTime.Milliseconds(),
				"transfer_ms", res.Report.CommTime.Milliseconds(),
				"agg_ms", res.Report.AggTime.Milliseconds(),
				"bytes_sent", res.Stats.BytesSent)
		}
		encErr := send(nodeMsg{Done: &done})
		if encErr != nil && runErr == nil {
			runErr = fmt.Errorf("cluster: reporting result: %w", encErr)
		}
		if runErr != nil {
			// With recovery on, one run's failure is not daemon-fatal: the
			// error rode the done report, and the coordinator decides
			// whether to re-block and resume or abort the session. Without
			// it (or when even the report could not be sent) the daemon
			// fail-stops as before.
			if !job.Recover || encErr != nil {
				setFatal(runErr)
			}
			return
		}
		stateMu.Lock()
		last = &res
		stateMu.Unlock()
	}
	handleRecover := func(rm recoverMsg) error {
		stateMu.Lock()
		e := eng
		var waits []*runHandle
		for _, r := range rm.Resumes {
			if h := runs[r.Seq]; h != nil && h.attempt < r.Attempt {
				h.superseded = true
				h.cancel()
				waits = append(waits, h)
			}
		}
		stateMu.Unlock()
		if e == nil {
			return fmt.Errorf("cluster: node %d got a recover message before any job", opt.ID)
		}
		// Superseded attempts must fully unwind before the engine's
		// setup-derived state is swapped under them.
		for _, h := range waits {
			<-h.done
		}
		flight.Record(obs.FlightEvent{
			At: time.Now().UnixNano(), Kind: "recover",
			Name: fmt.Sprintf("reblock epoch=%d dead=%d repl=%d", rm.Epoch, rm.Dead, rm.Repl),
			Node: int32(opt.ID),
		})
		if err := e.applyRecover(rm); err != nil {
			return fmt.Errorf("cluster: node %d applying reblock: %w", opt.ID, err)
		}
		for _, r := range rm.Resumes {
			job := r.Job
			job.Seq, job.Attempt = r.Seq, r.Attempt
			slog.Info("cluster resuming query after reblock",
				"node", opt.ID, "query", r.Seq, "attempt", r.Attempt, "barrier", r.Barrier)
			inflight.Add(1)
			go runOne(runReq{job: job, attempt: r.Attempt, fromBarrier: r.Barrier})
		}
		return nil
	}
	for m := range ctlCh {
		if m.Recover != nil {
			if err := handleRecover(*m.Recover); err != nil {
				setFatal(err)
			}
			continue
		}
		job := *m.Job
		if job.Shutdown {
			slog.Debug("cluster node shutting down", "node", opt.ID)
			inflight.Wait()
			stateMu.Lock()
			res, err := last, fatalErr
			stateMu.Unlock()
			return res, err
		}
		if eng == nil {
			// The engine (and the peer directory) is built synchronously on
			// the first job, so overlapping later jobs always find it
			// standing. The write is published under stateMu because the
			// decoder goroutine reads eng when building heartbeat replies.
			e, err := newEngine(opt.ID, peer, grp, job, secrets, opt.Chaos)
			if err != nil {
				send(nodeMsg{Done: &doneMsg{ID: opt.ID, Seq: job.Seq, Attempt: 1, Err: err.Error()}})
				return nil, err
			}
			e.shipCkpt = func(c ckptMsg) {
				if err := send(nodeMsg{Ckpt: &c}); err != nil {
					slog.Warn("cluster checkpoint ship failed",
						"node", opt.ID, "query", c.Seq, "barrier", c.Barrier, "error", err)
				}
			}
			stateMu.Lock()
			eng = e
			stateMu.Unlock()
			for id, addr := range job.Directory {
				if id != opt.ID {
					peer.Register(id, addr)
				}
			}
			// Self-delivery (a node can be relay and block member at
			// once) goes through the peer's own listener like any other
			// traffic — dialed at the local listen address, never the
			// advertised one, which may not be reachable from inside a
			// NAT.
			peer.Register(opt.ID, selfDialAddr(peer.Addr()))
		}
		attempt := job.Attempt
		if attempt < 1 {
			attempt = 1
		}
		inflight.Add(1)
		go runOne(runReq{job: job, attempt: attempt, fromBarrier: -1})
	}
	// The job channel closed without a shutdown message: the control plane
	// is gone (coordinator abort, node failure elsewhere, caller
	// cancellation, or a failed job of our own).
	inflight.Wait()
	stateMu.Lock()
	res, ferr := last, fatalErr
	stateMu.Unlock()
	if ferr != nil {
		return nil, ferr
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, fmt.Errorf("cluster: node %d: control connection to coordinator lost", opt.ID)
}

// selfDialAddr rewrites an unspecified listen host (0.0.0.0 / ::) to
// loopback so a node can dial its own listener.
func selfDialAddr(listenAddr string) string {
	host, port, err := net.SplitHostPort(listenAddr)
	if err != nil {
		return listenAddr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return listenAddr
}

// dialRetry dials addr with exponential backoff: a fleet launcher routinely
// starts node processes before the coordinator's listener is up, so early
// refusals are retried — quickly at first (a coordinator racing us up is
// ready within milliseconds), backing off to 1s between attempts. The
// retry window is capped by ctx's deadline; when ctx has none, `window`
// (default 10s) bounds it.
func dialRetry(ctx context.Context, addr string, window time.Duration) (net.Conn, error) {
	if window <= 0 {
		window = 10 * time.Second
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, window)
		defer cancel()
	}
	var d net.Dialer
	backoff := 25 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, err
		case <-timer.C:
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// ---------------------------------------------------------------------------
// Per-node execution engine
// ---------------------------------------------------------------------------

// engine executes the roles of exactly one node. It mirrors the schedule of
// vertex.Runtime — identical tags and message ordering — restricted to the
// vertices whose blocks contain this node, the edges it relays or adjusts,
// and (if assigned) the aggregation block, so a cluster of engines is
// wire-compatible with one simulated runtime.
type engine struct {
	id      network.NodeID
	tr      network.Transport
	grp     group.Group
	cfg     ConfigWire
	prog    *vertex.Program
	graph   *vertex.Graph
	setup   *trustedparty.SetupResult
	secrets trustedparty.NodeSecrets

	updCirc *circuit.Circuit
	table   *elgamal.Table
	tparam  transfer.Params

	// aggPlans caches the ε-dependent aggregation machinery per query
	// budget, mirroring vertex.Runtime: a standing node serves queries at
	// different budgets over one set of GMW sessions.
	aggPlans map[float64]*nodeAggPlan
	// sub is this node's pairwise OT substrate: one base-OT handshake per
	// ordered peer pair for the engine's lifetime, with every query's GMW
	// sessions deriving their own extension streams from it.
	sub *ot.Substrate
	// tags is the per-tag-prefix view of e.tr (nil when the transport does
	// not track tags); with overlapping jobs it is the only way to carve
	// one query's traffic out of the shared counters.
	tags network.TagTracker

	// setupMu guards the one-time setup accounting: the first job to start
	// claims setup and charges the pairwise OT handshakes to its Init
	// phase; planMu guards the ε-keyed aggregation-plan cache and certMu
	// the certificate-cache amortization counter — all shared by
	// overlapping jobs.
	setupMu   sync.Mutex
	setupDone bool
	setupTime time.Duration
	planMu    sync.Mutex
	certMu    sync.Mutex
	// certUses accumulates certificate-key uses across a session's jobs
	// so fixed-base tables amortize even when single queries are short.
	certUses int

	// certCache holds precomputed fixed-base tables for the certificate
	// keys this node encrypts under, the same cache vertex.Runtime uses,
	// so cluster runs get the same steady-state speedup; run enables it
	// when the iteration count amortizes the builds.
	certCache *transfer.CertKeyCache

	// memberVertices lists the vertices whose block contains this node, in
	// ascending order; memberIdx gives this node's index in each block.
	// Both — like setup, aggIdx, and certCache — are rewritten by
	// applyRecover, which only runs once every in-flight run has unwound,
	// so runs never observe a half-applied re-blocking.
	memberVertices []int
	memberIdx      map[int]int
	aggIdx         int // index in the aggregation block, or -1

	// --- Failure-recovery plane (active when recoverOn). ---
	recoverOn  bool
	chaos      *NodeChaos
	chaosFired atomic.Bool
	// keyMu guards the fleet recovery key exchange: the lowest-id node
	// generates the key and distributes it over the data plane, so the
	// coordinator never holds it and checkpoint blobs stay opaque to it.
	keyMu  sync.Mutex
	recKey []byte
	// archMu guards the per-query archives: the dispatched job and this
	// node's own barrier snapshots, retained past completion (capped)
	// because a recovery may resume a query this node already finished.
	archMu    sync.Mutex
	archives  map[int]*queryArchive
	archOrder []int
	// adoptedNK / adoptedIn hold, per adopted vertex, the dead
	// registrant's neighbor keys (the re-issued certificates were
	// randomized under them) and the owner inputs the replacement runs
	// with. Written by applyRecover, read by later runs.
	adoptedNK map[int][]*big.Int
	adoptedIn map[int]adoptedInput
	// recChanged lists the vertices whose block membership changed in the
	// latest re-blocking; resumed runs re-randomize exactly these.
	recChanged []int
	// shipCkpt sends one encrypted snapshot up the control plane.
	shipCkpt func(ckptMsg)
}

// archiveCap bounds how many per-query archives a standing daemon retains.
const archiveCap = 8

// queryArchive is one query's recoverable state on one node.
type queryArchive struct {
	snaps map[int]*vertex.Snapshot
	// adoptBlob is the dead node's encrypted snapshot at the resume
	// barrier, handed to the replacement by the coordinator.
	adoptBlob []byte
}

// nodeRun is one query's protocol state on one node: its GMW sessions (all
// tagged under root, so their wire streams cannot collide with another
// query's) and this node's XOR share registers. Each runJob owns exactly one
// nodeRun; overlapping jobs touch disjoint nodeRuns and disjoint tag
// namespaces.
type nodeRun struct {
	root string // "q/<seq>", the tag namespace of this query
	// proto is the namespace protocol traffic actually uses: root on the
	// first attempt, root/a/<attempt> on post-recovery attempts, so a
	// resumed run's streams can never collide with a superseded attempt's
	// strays. It nests under root, so per-query byte accounting and final
	// tag retirement still cover every attempt.
	proto string
	// inits / privs are the owner inputs for every vertex this node acts
	// as owner of: its own vertex, plus any adopted after a re-blocking.
	inits map[int]int64
	privs map[int][]uint8
	// recKey is the fleet recovery key (nil when recovery is off).
	recKey []byte

	sessions map[int]*gmw.Party
	aggParty *gmw.Party

	// stateShare[v] / msgShare[v][slot] are this node's XOR shares for the
	// vertices it is a block member of.
	stateShare map[int]uint64
	msgShare   map[int][]uint64
}

func newEngine(id network.NodeID, tr network.Transport, grp group.Group, job jobMsg, secrets trustedparty.NodeSecrets, chaos *NodeChaos) (*engine, error) {
	prog, err := job.Prog.Build()
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	n := len(job.Topo.Out)
	if int(id) > n {
		return nil, fmt.Errorf("cluster: node %d has no vertex in an %d-vertex graph", id, n)
	}
	g := vertex.NewGraph(n, job.Topo.D)
	for u, outs := range job.Topo.Out {
		for _, v := range outs {
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	own := int(id) - 1
	g.InitState[own] = job.InitState
	if len(job.Priv) != prog.PrivBits(g.D) {
		return nil, fmt.Errorf("cluster: node %d got %d private input bits, program wants %d",
			id, len(job.Priv), prog.PrivBits(g.D))
	}
	g.Priv[own] = job.Priv

	setup, err := trustedparty.UnmarshalSetup(grp, job.Setup)
	if err != nil {
		return nil, err
	}
	if !trustedparty.VerifyAssignment(setup.VerifyKey, setup.Assignment) {
		return nil, fmt.Errorf("cluster: node %d: trusted-party assignment signature invalid", id)
	}
	// Verify every block certificate too: transfers encrypt subshares under
	// these keys, so a tampered certificate would hand the ciphertexts to
	// an attacker (§3.4 signs both artifacts; check both).
	for certNode, certs := range setup.Certs {
		for j, c := range certs {
			if !trustedparty.VerifyCert(setup.VerifyKey, grp, c) {
				return nil, fmt.Errorf("cluster: node %d: certificate %d of node %d has an invalid signature", id, j, certNode)
			}
		}
	}

	e := &engine{
		id: id, tr: tr, grp: grp, cfg: job.Cfg, prog: prog, graph: g,
		setup: setup, secrets: secrets,
		memberIdx: make(map[int]int),
		aggIdx:    -1,
		certCache: transfer.NewCertKeyCache(),
		aggPlans:  make(map[float64]*nodeAggPlan),
		sub:       ot.NewSubstrate(grp, tr),
		recoverOn: job.Recover,
		chaos:     chaos,
		archives:  make(map[int]*queryArchive),
		adoptedNK: make(map[int][]*big.Int),
		adoptedIn: make(map[int]adoptedInput),
	}
	e.tags, _ = tr.(network.TagTracker)
	if e.updCirc, err = prog.UpdateCircuit(g.D); err != nil {
		return nil, err
	}

	e.tparam = transfer.Params{Group: grp, K: job.Cfg.K, L: prog.MsgBits, Alpha: job.Cfg.Alpha}
	if err := e.tparam.Validate(); err != nil {
		return nil, err
	}
	pFail := job.Cfg.TablePFail
	if pFail == 0 {
		pFail = 1e-12
	}
	e.table = e.tparam.MakeTable(pFail)

	for v := 0; v < n; v++ {
		members := setup.Assignment.Blocks[g.NodeOf(v)]
		if len(members) != job.Cfg.K+1 {
			return nil, fmt.Errorf("cluster: block of vertex %d has %d members, want %d", v, len(members), job.Cfg.K+1)
		}
		if mi := indexOf(members, id); mi >= 0 {
			e.memberIdx[v] = mi
			e.memberVertices = append(e.memberVertices, v)
		}
	}
	sort.Ints(e.memberVertices)
	if mi, ok := e.memberIdx[own]; !ok || mi != 0 {
		return nil, fmt.Errorf("cluster: node %d is not the first member of its own block", id)
	}
	e.aggIdx = indexOf(setup.Assignment.AggBlock, id)
	return e, nil
}

func indexOf(ids []network.NodeID, id network.NodeID) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

// createSessions joins every GMW session this node is a member of, tagged
// under the query's "q/<seq>" namespace: the substrate derives each query's
// extension streams from the tag, so after the first query has paid the
// pairwise handshakes this is purely local seed derivation plus the GMW
// seed exchange. All sessions are joined concurrently and unboundedly: IKNP
// handshakes block until every member of a session arrives, and nodes
// discover their sessions in different orders, so any bounded schedule
// could deadlock across processes.
func (e *engine) createSessions(ctx context.Context, run *nodeRun) error {
	opt := gmw.SubstrateOT{Sub: e.sub}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	join := func(v int, members []network.NodeID, mi int, tag string, store func(*gmw.Party)) {
		defer wg.Done()
		p, err := gmw.NewParty(ctx, gmw.Config{
			Parties: members, Index: mi, Transport: e.tr, Tag: tag, OT: opt,
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: session %s: %w", tag, err)
		}
		store(p)
	}
	for _, v := range e.memberVertices {
		v := v
		members := e.setup.Assignment.Blocks[e.graph.NodeOf(v)]
		wg.Add(1)
		go join(v, members, e.memberIdx[v], network.Tag(run.proto, "blk", v), func(p *gmw.Party) {
			run.sessions[v] = p
		})
	}
	if e.aggIdx >= 0 {
		wg.Add(1)
		go join(-1, e.setup.Assignment.AggBlock, e.aggIdx, network.Tag(run.proto, "aggblk"), func(p *gmw.Party) {
			run.aggParty = p
		})
	}
	wg.Wait()
	return firstErr
}

// nodeAggPlan bundles the ε-dependent half of a query: the noise spec and
// the flat-aggregation circuit (tree roots compile per query). The circuit
// is compiled on first use by aggCircuit: only the k+1 aggregation-block
// members evaluate it, so the other nodes never pay for it.
type nodeAggPlan struct {
	noise vertex.NoiseSpec

	once sync.Once
	circ *circuit.Circuit
	err  error
}

// planFor returns (creating and caching on first use) the aggregation plan
// for the given privacy budget. Safe for overlapping jobs.
func (e *engine) planFor(epsilon float64) *nodeAggPlan {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if pl, ok := e.aggPlans[epsilon]; ok {
		return pl
	}
	pl := &nodeAggPlan{}
	if epsilon > 0 {
		pl.noise = vertex.DefaultNoiseSpec(epsilon, e.prog.Sensitivity, e.cfg.NoiseShift)
	}
	e.aggPlans[epsilon] = pl
	return pl
}

// aggCircuit returns the plan's flat-aggregation circuit, compiling it on
// the first call; the compile shows as an "init/agg_circuit" span. Only
// aggregation-block members call it.
func (e *engine) aggCircuit(ctx context.Context, pl *nodeAggPlan) (*circuit.Circuit, error) {
	pl.once.Do(func() {
		t0 := time.Now()
		pl.circ, pl.err = e.prog.AggregateCircuit(e.graph.N(), pl.noise)
		obs.From(ctx).SpanDur("init/agg_circuit", t0, time.Since(t0))
	})
	return pl.circ, pl.err
}

// tagUnderRoot reports whether tag prefix belongs to the query rooted at
// root ("q/<seq>"): the root itself or any tag below it.
func tagUnderRoot(prefix, root string) bool {
	return prefix == root ||
		(strings.HasPrefix(prefix, root) && len(prefix) > len(root) && prefix[len(root)] == '/')
}

// queryStats carves one query's traffic out of the transport's shared
// counters by its tag namespace. withSetup additionally charges the
// pairwise substrate handshakes ("otsub", paid once per deployment) to this
// query, mirroring how the simulated runtime charges them to setup. Falls
// back to the cumulative totals when the transport does not track tags.
func (e *engine) queryStats(root string, withSetup bool) network.Stats {
	if e.tags == nil {
		return e.tr.Stats()
	}
	var s network.Stats
	for prefix, ts := range e.tags.TagStats() {
		if tagUnderRoot(prefix, root) || (withSetup && prefix == "otsub") {
			s.BytesSent += ts.BytesSent
			s.BytesReceived += ts.BytesReceived
			s.MessagesSent += ts.MessagesSent
		}
	}
	return s
}

// ownerOf returns the acting owner of vertex v: the first member of v's
// block. Before any re-blocking that is the registered owner (node v+1);
// after one it may be the replacement that adopted the dead owner's slot.
// Relay and adjuster roles follow the acting owner.
func (e *engine) ownerOf(v int) network.NodeID {
	return e.setup.Assignment.Blocks[e.graph.NodeOf(v)][0]
}

// neighborKey returns the key the adjuster role uses for edge slot
// (v, slot): this node's own registered key for its own vertex, the dead
// registrant's key for an adopted one — the trusted party re-issued the
// changed certificates under the ORIGINAL registrant's neighbor keys, so
// adjustments must use them too.
func (e *engine) neighborKey(v, slot int) (*big.Int, error) {
	if int(e.id)-1 == v {
		return e.secrets.NeighborKeys[slot], nil
	}
	nks := e.adoptedNK[v]
	if slot >= len(nks) {
		return nil, fmt.Errorf("cluster: node %d has no neighbor key for adopted vertex %d slot %d", e.id, v, slot)
	}
	return nks[slot], nil
}

// recoveryKey returns the fleet recovery key, running the one-time
// exchange on first use: the lowest-id node generates it and ships it to
// every peer over the data plane, so checkpoint blobs stored by the
// coordinator stay opaque to it (a colluding coordinator+node pair could
// open them; see DESIGN.md). A failed exchange is retried by the next run
// rather than latched, so one canceled query cannot poison the daemon.
func (e *engine) recoveryKey(ctx context.Context) ([]byte, error) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if e.recKey != nil {
		return e.recKey, nil
	}
	minID := e.id
	for id := range e.setup.Assignment.Blocks {
		if id < minID {
			minID = id
		}
	}
	if e.id == minID {
		key, err := vertex.NewRecoveryKey()
		if err != nil {
			return nil, err
		}
		for id := range e.setup.Assignment.Blocks {
			if id == e.id {
				continue
			}
			if err := e.tr.Send(id, network.Tag("reckey"), key); err != nil {
				return nil, err
			}
		}
		e.recKey = key
		return key, nil
	}
	data, err := e.tr.Recv(ctx, minID, network.Tag("reckey"))
	if err != nil {
		return nil, err
	}
	if len(data) != vertex.RecoveryKeySize {
		return nil, fmt.Errorf("cluster: recovery key has %d bytes, want %d", len(data), vertex.RecoveryKeySize)
	}
	e.recKey = data
	return data, nil
}

// archiveJob opens a query's archive — the local home for its barrier
// snapshots — evicting the oldest archive past archiveCap. Resume jobs
// themselves ride in from the coordinator on resumeSpec, so the archive
// holds only share state.
func (e *engine) archiveJob(seq int) {
	e.archMu.Lock()
	defer e.archMu.Unlock()
	if e.archives[seq] != nil {
		return
	}
	e.archives[seq] = &queryArchive{snaps: make(map[int]*vertex.Snapshot)}
	e.archOrder = append(e.archOrder, seq)
	if len(e.archOrder) > archiveCap {
		drop := e.archOrder[0]
		e.archOrder = e.archOrder[1:]
		delete(e.archives, drop)
	}
}

// replayedFrom counts the barriers this node re-executes when resuming at
// b: from b through the latest barrier its own first attempt had reached.
func (e *engine) replayedFrom(seq, b int) int {
	e.archMu.Lock()
	defer e.archMu.Unlock()
	latest := b
	if arch := e.archives[seq]; arch != nil {
		for bb := range arch.snaps {
			if bb > latest {
				latest = bb
			}
		}
	}
	return latest - b + 1
}

// checkpointBarrier externalizes the run's share registers at barrier b:
// the snapshot is archived locally and its encrypting goes to the
// coordinator as a ckptMsg. Shipping is best-effort — a lost blob only
// narrows which barrier a future recovery can resume from.
func (e *engine) checkpointBarrier(run *nodeRun, seq, attempt, b int) {
	if !e.recoverOn {
		return
	}
	snap := &vertex.Snapshot{
		Barrier: b,
		State:   make(map[int]uint64, len(e.memberVertices)),
		Msgs:    make(map[int][]uint64, len(e.memberVertices)),
	}
	for _, v := range e.memberVertices {
		snap.State[v] = run.stateShare[v]
		snap.Msgs[v] = append([]uint64(nil), run.msgShare[v]...)
	}
	e.archMu.Lock()
	if arch := e.archives[seq]; arch != nil {
		arch.snaps[b] = snap
	}
	e.archMu.Unlock()
	blob, err := vertex.EncryptSnapshot(run.recKey, vertex.EncodeSnapshot(snap))
	if err != nil {
		slog.Warn("cluster checkpoint encrypt failed", "node", e.id, "query", seq, "error", err)
		return
	}
	if e.shipCkpt != nil {
		e.shipCkpt(ckptMsg{Seq: seq, Attempt: attempt, Barrier: b, Blob: blob})
	}
}

// restoreRun re-enters the lock-step schedule at a barrier: load this
// node's own archived snapshot, merge the dead owner's decrypted blob for
// freshly adopted vertices, re-randomize every changed block, and
// re-checkpoint the merged state so an even later recovery can still
// resume from this barrier.
func (e *engine) restoreRun(ctx context.Context, run *nodeRun, req runReq) error {
	seq, b := req.job.Seq, req.fromBarrier
	e.archMu.Lock()
	arch := e.archives[seq]
	var snap *vertex.Snapshot
	var blob []byte
	if arch != nil {
		snap = arch.snaps[b]
		blob = arch.adoptBlob
	}
	e.archMu.Unlock()
	if arch == nil {
		return fmt.Errorf("cluster: query %d has no archive to resume from", seq)
	}
	var dead *vertex.Snapshot
	for _, v := range e.memberVertices {
		if snap != nil {
			if w, ok := snap.State[v]; ok {
				run.stateShare[v] = w
				run.msgShare[v] = append([]uint64(nil), snap.Msgs[v]...)
				continue
			}
		}
		if dead == nil {
			if blob == nil {
				return fmt.Errorf("cluster: no checkpoint covers vertex %d at barrier %d of query %d", v, b, seq)
			}
			plain, err := vertex.DecryptSnapshot(run.recKey, blob)
			if err != nil {
				return fmt.Errorf("cluster: opening dead node's checkpoint for query %d: %w", seq, err)
			}
			if dead, err = vertex.DecodeSnapshot(plain); err != nil {
				return err
			}
			if dead.Barrier != b {
				return fmt.Errorf("cluster: dead node's checkpoint is at barrier %d, resume wants %d", dead.Barrier, b)
			}
		}
		w, ok := dead.State[v]
		if !ok {
			return fmt.Errorf("cluster: no checkpoint covers vertex %d at barrier %d of query %d", v, b, seq)
		}
		run.stateShare[v] = w
		run.msgShare[v] = append([]uint64(nil), dead.Msgs[v]...)
	}
	if err := e.rerandomize(ctx, run); err != nil {
		return err
	}
	e.checkpointBarrier(run, seq, req.attempt, b)
	return nil
}

// rerandomize re-shares every changed block's registers among its new
// membership (source == destination): the replacement's restored shares
// came out of a blob the coordinator stored, so without a fresh reshare
// that blob would stay a live share of the block. The XOR opens unchanged;
// every individual share is fresh. All sends complete before any receive
// so no two members wait on each other.
func (e *engine) rerandomize(ctx context.Context, run *nodeRun) error {
	g := e.graph
	for _, v := range e.recChanged {
		mi, ok := e.memberIdx[v]
		if !ok {
			continue
		}
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		if err := e.reshareSend(run.stateShare[v], e.prog.StateBits, mi, members, network.Tag(run.proto, "recover", v, "st")); err != nil {
			return err
		}
		for d := 0; d < g.D; d++ {
			if err := e.reshareSend(run.msgShare[v][d], e.prog.MsgBits, mi, members, network.Tag(run.proto, "recover", v, "m", d)); err != nil {
				return err
			}
		}
	}
	for _, v := range e.recChanged {
		if _, ok := e.memberIdx[v]; !ok {
			continue
		}
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		st, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "recover", v, "st"))
		if err != nil {
			return err
		}
		run.stateShare[v] = st
		for d := 0; d < g.D; d++ {
			m, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "recover", v, "m", d))
			if err != nil {
				return err
			}
			run.msgShare[v][d] = m
		}
	}
	return nil
}

// applyRecover commits a re-blocking to the standing engine. It runs on
// the control loop after every superseded run has unwound, so rewriting
// the setup-derived state is unobserved; resumed runs spawn only after it
// returns.
func (e *engine) applyRecover(rm recoverMsg) error {
	setup, err := trustedparty.UnmarshalSetup(e.grp, rm.Setup)
	if err != nil {
		return err
	}
	if !trustedparty.VerifyAssignment(setup.VerifyKey, setup.Assignment) {
		return fmt.Errorf("re-signed assignment signature invalid")
	}
	for certNode, certs := range setup.Certs {
		for j, c := range certs {
			if !trustedparty.VerifyCert(setup.VerifyKey, e.grp, c) {
				return fmt.Errorf("certificate %d of node %d invalid after reblock", j, certNode)
			}
		}
	}
	g := e.graph
	// Changed blocks — the ones the dead node sat in — read off the
	// assignment being replaced, before it is swapped out.
	var changed []int
	for v := 0; v < g.N(); v++ {
		if indexOf(e.setup.Assignment.Blocks[g.NodeOf(v)], rm.Dead) >= 0 {
			changed = append(changed, v)
		}
	}
	memberIdx := make(map[int]int)
	var memberVertices []int
	for v := 0; v < g.N(); v++ {
		members := setup.Assignment.Blocks[g.NodeOf(v)]
		if len(members) != e.cfg.K+1 {
			return fmt.Errorf("block of vertex %d has %d members after reblock, want %d", v, len(members), e.cfg.K+1)
		}
		if mi := indexOf(members, e.id); mi >= 0 {
			memberIdx[v] = mi
			memberVertices = append(memberVertices, v)
		}
	}
	sort.Ints(memberVertices)
	if e.id == rm.Repl {
		for v, raw := range rm.AdoptedKeys {
			nks := make([]*big.Int, len(raw))
			for j, kb := range raw {
				nks[j] = new(big.Int).SetBytes(kb)
			}
			e.adoptedNK[v] = nks
		}
		for v, ai := range rm.AdoptedInputs {
			e.adoptedIn[v] = ai
		}
		e.archMu.Lock()
		for seq, blob := range rm.DeadBlobs {
			if arch := e.archives[seq]; arch != nil {
				arch.adoptBlob = blob
			}
		}
		e.archMu.Unlock()
	}
	e.setup = setup
	e.memberIdx = memberIdx
	e.memberVertices = memberVertices
	e.aggIdx = indexOf(setup.Assignment.AggBlock, e.id)
	e.recChanged = changed
	// The changed blocks' certificates were re-issued: drop the fixed-base
	// tables and re-enable if the accumulated uses still amortize rebuilds.
	e.certCache = transfer.NewCertKeyCache()
	e.certMu.Lock()
	if e.tparam.PrecomputeWorthwhile(e.certUses) {
		e.certCache.Enable()
	}
	e.certMu.Unlock()
	return nil
}

// runJob executes one query's full schedule and fills res. The query's
// whole wire footprint lives under its "q/<seq>" tag namespace — GMW
// sessions, transfers, reshares — so overlapping jobs on one standing fleet
// cannot collide; each job's sessions derive fresh OT extension streams
// from the standing substrate. The job that wins the setup race pays the
// pairwise base-OT handshakes in its Init phase (like the simulated
// runtime's New); all other jobs pay only seed derivation and share
// distribution. With recovery on, every phase barrier is checkpointed, and
// a resumed attempt (fromBarrier ≥ 0) restores its registers instead of
// redistributing initial shares.
func (e *engine) runJob(ctx context.Context, req runReq, res *NodeResult) error {
	job := req.job
	iterations := job.Iterations
	if iterations < 0 {
		return fmt.Errorf("cluster: negative iteration count %d", iterations)
	}
	plan := e.planFor(job.Cfg.Epsilon)
	run := &nodeRun{
		root:       network.Tag("q", job.Seq),
		inits:      make(map[int]int64),
		privs:      make(map[int][]uint8),
		sessions:   make(map[int]*gmw.Party),
		stateShare: make(map[int]uint64),
		msgShare:   make(map[int][]uint64),
	}
	run.proto = run.root
	if req.attempt > 1 {
		run.proto = network.Tag(run.root, "a", req.attempt)
	}
	// Owner inputs ride on the job message: queries may follow updated
	// books, and overlapping queries must each see their own snapshot, so
	// the inputs live on the run, never on the shared graph. A node acting
	// as owner for adopted vertices additionally supplies their inputs
	// (persisted engine-side at recovery, refreshed by later jobs).
	own := int(e.id) - 1
	run.inits[own], run.privs[own] = job.InitState, job.Priv
	for v, ai := range e.adoptedIn {
		run.inits[v], run.privs[v] = ai.InitState, ai.Priv
	}
	for v, ai := range job.Adopted {
		run.inits[v], run.privs[v] = ai.InitState, ai.Priv
	}
	for _, v := range e.memberVertices {
		if e.memberIdx[v] != 0 {
			continue
		}
		priv, ok := run.privs[v]
		if !ok {
			return fmt.Errorf("cluster: node %d acts as owner of vertex %d but has no inputs for it", e.id, v)
		}
		if len(priv) != e.prog.PrivBits(e.graph.D) {
			return fmt.Errorf("cluster: node %d got %d private input bits for vertex %d, program wants %d",
				e.id, len(priv), v, e.prog.PrivBits(e.graph.D))
		}
	}
	if e.recoverOn {
		key, err := e.recoveryKey(ctx)
		if err != nil {
			return err
		}
		run.recKey = key
		e.archiveJob(job.Seq)
	}

	rep := &vertex.Report{
		Iterations:     iterations,
		UpdateAndGates: e.updCirc.NumAnd,
	}
	// Recovery rewrites aggIdx only between runs, so a replacement adopted
	// into the aggregation block compiles here on its resumed attempt.
	if e.aggIdx >= 0 {
		circ, err := e.aggCircuit(ctx, plan)
		if err != nil {
			return err
		}
		rep.AggAndGates = circ.NumAnd
	}
	// A cluster node is a single sender, so each certificate key it
	// caches is used once per iteration; uses accumulate across the
	// session's queries.
	e.certMu.Lock()
	e.certUses += iterations
	if e.tparam.PrecomputeWorthwhile(e.certUses) {
		e.certCache.Enable()
	}
	e.certMu.Unlock()
	// The first job to arrive claims setup: its Init phase owns the
	// pairwise OT handshakes (and the "otsub" bytes). Overlapping jobs
	// racing through createSessions together still handshake each pair
	// exactly once — the substrate serializes per pair — but accounting
	// needs a single owner.
	e.setupMu.Lock()
	paysSetup := !e.setupDone
	e.setupDone = true
	e.setupMu.Unlock()

	phaseStart := func() (time.Time, int64) {
		s := e.queryStats(run.root, paysSetup)
		return time.Now(), s.BytesSent + s.BytesReceived
	}
	phaseBytes := func(b0 int64) int64 {
		s := e.queryStats(run.root, paysSetup)
		return s.BytesSent + s.BytesReceived - b0
	}
	trace := obs.From(ctx)

	// Phases open a live span (Begin) and announce themselves to the
	// progress callback before doing any work: a phase that hangs or dies
	// is visible in heartbeat snapshots and in the failure report, not only
	// after it completes. On an error return the open span is deliberately
	// left unclosed — it marks where the protocol stopped.

	// --- Initialization: session joins + owner share distribution. ---
	t0, b0 := phaseStart()
	obs.ReportProgress(ctx, "phase/init")
	endPhase := trace.Begin("phase/init")
	if err := e.createSessions(ctx, run); err != nil {
		return err
	}
	if paysSetup {
		e.setupMu.Lock()
		e.setupTime = time.Since(t0)
		e.setupMu.Unlock()
		trace.SpanDur("init/sessions", t0, time.Since(t0))
	}
	resume := req.fromBarrier >= 0
	var replayed int
	if resume {
		replayed = e.replayedFrom(job.Seq, req.fromBarrier)
		if err := e.restoreRun(ctx, run, req); err != nil {
			return err
		}
	} else {
		if err := e.initShares(ctx, run); err != nil {
			return err
		}
		e.checkpointBarrier(run, job.Seq, req.attempt, 0)
	}
	rep.InitTime = time.Since(t0)
	rep.InitBytes = phaseBytes(b0)
	e.setupMu.Lock()
	rep.SetupTime = e.setupTime
	e.setupMu.Unlock()
	rep.BaseOTHandshakes = e.sub.Handshakes()
	endPhase()

	// --- Iterations. Barrier b is the start of iteration b, so a resumed
	// run re-enters at its barrier and replays that iteration's compute. ---
	startIter := 0
	if resume {
		startIter = req.fromBarrier
		rep.ReplayedBarriers = replayed
	}
	for it := startIter; it <= iterations; it++ {
		t0, b0 = phaseStart()
		obs.ReportProgress(ctx, fmt.Sprintf("iter/%d/compute", it))
		endPhase = trace.Begin(fmt.Sprintf("iter/%d/compute", it))
		out, err := e.computeStep(ctx, run, it)
		if err != nil {
			return fmt.Errorf("cluster: node %d iteration %d compute: %w", e.id, it, err)
		}
		endPhase()
		rep.ComputeTime += time.Since(t0)
		rep.ComputeBytes += phaseBytes(b0)

		if e.chaos != nil && req.attempt == 1 && it == e.chaos.Barrier &&
			e.chaosFired.CompareAndSwap(false, true) {
			slog.Warn("cluster chaos: killing node", "node", e.id, "query", job.Seq, "barrier", it)
			e.chaos.Kill()
			<-ctx.Done()
			return ctx.Err()
		}
		if it == iterations {
			break
		}
		t0, b0 = phaseStart()
		obs.ReportProgress(ctx, fmt.Sprintf("iter/%d/communicate", it))
		endPhase = trace.Begin(fmt.Sprintf("iter/%d/communicate", it))
		if err := e.communicateStep(ctx, run, it, out); err != nil {
			return fmt.Errorf("cluster: node %d iteration %d communicate: %w", e.id, it, err)
		}
		endPhase()
		rep.CommTime += time.Since(t0)
		rep.CommBytes += phaseBytes(b0)
		e.checkpointBarrier(run, job.Seq, req.attempt, it+1)
	}

	// --- Aggregation + noising. ---
	t0, b0 = phaseStart()
	obs.ReportProgress(ctx, "phase/agg")
	endPhase = trace.Begin("phase/agg")
	result, hasResult, err := e.aggregate(ctx, run, plan)
	if err != nil {
		return fmt.Errorf("cluster: node %d aggregation: %w", e.id, err)
	}
	endPhase()
	rep.AggTime = time.Since(t0)
	rep.AggBytes = phaseBytes(b0)

	// Per-query accounting, then retirement: snapshot this query's traffic
	// and fold its per-prefix counters into the trace, then drop its tag
	// namespace from the transport so a standing daemon's counters and
	// mailboxes do not grow with every query served.
	res.Stats = e.queryStats(run.root, paysSetup)
	if e.tags != nil {
		for prefix, ts := range e.tags.TagStats() {
			if !tagUnderRoot(prefix, run.root) && !(paysSetup && prefix == "otsub") {
				continue
			}
			trace.Add("net/"+prefix+"/bytes_sent", ts.BytesSent)
			trace.Add("net/"+prefix+"/bytes_recv", ts.BytesReceived)
			trace.Add("net/"+prefix+"/msgs_sent", ts.MessagesSent)
		}
	}
	if rt, ok := e.tr.(network.TagRetirer); ok {
		rt.RetireTagPrefix(run.root)
	}

	res.Result = result
	res.HasResult = hasResult
	res.Report = *rep
	return nil
}

// initShares distributes the owner-generated initial shares: for every
// vertex this node acts as owner of (its own, plus adopted ones after a
// re-blocking) it splits the state plus D no-op slots and ships the shares
// to the block; then it collects its shares of every other vertex it is a
// block member of. All sends happen before any receive so no pair of nodes
// can wait on each other.
func (e *engine) initShares(ctx context.Context, run *nodeRun) error {
	g := e.graph
	k1 := e.cfg.K + 1
	for _, v := range e.memberVertices {
		if e.memberIdx[v] != 0 {
			continue
		}
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		st := secretshare.SplitXOR(uint64(run.inits[v]), k1, e.prog.StateBits)
		msgs := make([][]uint64, g.D)
		for d := range msgs {
			msgs[d] = secretshare.SplitXOR(uint64(e.prog.NoOp), k1, e.prog.MsgBits)
		}
		for m := 1; m < k1; m++ {
			vals := append([]uint64{st[m]}, vertex.Column(msgs, m)...)
			if err := e.tr.Send(members[m], network.Tag(run.proto, "init", v), vertex.EncodeShares(vals)); err != nil {
				return err
			}
		}
		run.stateShare[v] = st[0]
		run.msgShare[v] = make([]uint64, g.D)
		for d := range msgs {
			run.msgShare[v][d] = msgs[d][0]
		}
	}

	for _, v := range e.memberVertices {
		if e.memberIdx[v] == 0 {
			continue
		}
		data, err := e.tr.Recv(ctx, e.ownerOf(v), network.Tag(run.proto, "init", v))
		if err != nil {
			return err
		}
		vals, err := vertex.DecodeShares(data, 1+g.D)
		if err != nil {
			return err
		}
		run.stateShare[v] = vals[0]
		run.msgShare[v] = vals[1:]
	}
	return nil
}

// memberInput assembles this node's input-share bits for vertex v's update:
// [state | priv | msgs]; only the acting owner (member 0) contributes the
// private data, from the run's per-vertex input snapshot.
func (e *engine) memberInput(run *nodeRun, v int) []uint8 {
	g := e.graph
	in := vertex.WordToBits(run.stateShare[v], e.prog.StateBits)
	if e.memberIdx[v] == 0 {
		in = append(in, run.privs[v]...)
	} else {
		in = append(in, make([]uint8, e.prog.PrivBits(g.D))...)
	}
	for d := 0; d < g.D; d++ {
		in = append(in, vertex.WordToBits(run.msgShare[v][d], e.prog.MsgBits)...)
	}
	return in
}

// computeStep runs the update MPC of every block this node belongs to, all
// concurrently (each session's other members run theirs concurrently too).
// It returns this node's fresh output-message shares, [vertex][slot].
func (e *engine) computeStep(ctx context.Context, run *nodeRun, iter int) (map[int][]uint64, error) {
	g := e.graph
	trace := obs.From(ctx)
	out := make(map[int][]uint64, len(e.memberVertices))
	// Inputs are assembled up front: memberInput reads the share maps,
	// which the evaluation goroutines mutate.
	inputs := make(map[int][]uint8, len(e.memberVertices))
	for _, v := range e.memberVertices {
		inputs[v] = e.memberInput(run, v)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, v := range e.memberVertices {
		v := v
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			outBits, err := run.sessions[v].Evaluate(ctx, e.updCirc, inputs[v])
			if trace != nil && err == nil {
				trace.Span(fmt.Sprintf("iter/%d/blk/%d/gmw", iter, v), t0)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("block %d: %w", v, err)
				}
				return
			}
			run.stateShare[v] = vertex.BitsToWord(outBits[:e.prog.StateBits])
			slots := make([]uint64, g.D)
			for d := 0; d < g.D; d++ {
				lo := e.prog.StateBits + d*e.prog.MsgBits
				slots[d] = vertex.BitsToWord(outBits[lo : lo+e.prog.MsgBits])
			}
			out[v] = slots
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// communicateStep runs this node's roles in every edge transfer: sender-
// block member, relay (node u), adjuster (node v), receiver-block member.
// All roles across all edges run concurrently; transfers for edges this
// node plays no role in cost it nothing.
func (e *engine) communicateStep(ctx context.Context, run *nodeRun, iter int, out map[int][]uint64) error {
	g := e.graph
	// Refresh all input slots with ⊥ shares; transfers overwrite the slots
	// with real in-edges. Share 0 (the owner's) carries ⊥, the rest zero.
	for _, v := range e.memberVertices {
		for d := 0; d < g.D; d++ {
			if e.memberIdx[v] == 0 {
				run.msgShare[v][d] = uint64(e.prog.NoOp) & secretshare.Mask(e.prog.MsgBits)
			} else {
				run.msgShare[v][d] = 0
			}
		}
	}

	trace := obs.From(ctx)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	record := func(u, v int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("edge (%d,%d): %w", u, v, err)
		}
	}
	// span wraps one transfer role; the span name extends the wire tag
	// ("tx/<iter>/<u>/<v>") with the role this node played.
	span := func(tag, role string, t0 time.Time) {
		if trace != nil {
			trace.Span(tag+"/"+role, t0)
		}
	}
	for _, edge := range g.Edges() {
		u, v := edge[0], edge[1]
		vID := g.NodeOf(v)
		// Relay and adjuster duties follow the ACTING owners of u and v —
		// after a re-blocking those roles move with the adopted owner slot,
		// while certificates stay keyed by the registered owner.
		relayID, adjustID := e.ownerOf(u), e.ownerOf(v)
		slotIn, err := g.InSlot(u, v)
		if err != nil {
			return err
		}
		tag := network.Tag(run.proto, "tx", iter, u, v)
		sendersB := e.setup.Assignment.Blocks[g.NodeOf(u)]
		recvB := e.setup.Assignment.Blocks[vID]

		if _, ok := e.memberIdx[u]; ok {
			share := out[u][vertex.OutSlot(g, u, v)]
			v, slotIn := v, slotIn
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				// Key lookup (and a possible first-iteration table build)
				// runs in the goroutine so builds for different edges
				// overlap instead of stalling the dispatch loop.
				keys := e.recipientKeys(v, slotIn, vID)
				record(u, v, transfer.SendShare(ctx, e.tparam, e.tr, relayID, tag, share, keys))
				span(tag, "send", t0)
			}()
		}
		if e.id == relayID {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				record(u, v, transfer.RunRelay(ctx, e.tparam, e.tr, sendersB, adjustID, tag, dp.CryptoSource{}))
				span(tag, "relay", t0)
			}()
		}
		if e.id == adjustID {
			nk, err := e.neighborKey(v, slotIn)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				record(u, v, transfer.RunAdjust(ctx, e.tparam, e.tr, relayID, recvB, nk, tag))
				span(tag, "adjust", t0)
			}()
		}
		if _, ok := e.memberIdx[v]; ok {
			v, slotIn := v, slotIn
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				share, err := transfer.ReceiveShare(ctx, e.tparam, e.tr, adjustID, tag, e.secrets.PrivateKeys, e.table)
				if err != nil {
					record(u, v, err)
					return
				}
				span(tag, "recv", t0)
				mu.Lock()
				run.msgShare[v][slotIn] = share
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// recipientKeys returns the certificate keys for edge slot (v, slotIn)
// belonging to node vID, with fixed-base tables when the run is long
// enough to amortize them.
func (e *engine) recipientKeys(v, slotIn int, vID network.NodeID) transfer.RecipientKeys {
	return e.certCache.Keys(v, slotIn, transfer.RecipientKeys(e.setup.Certs[vID][slotIn].Keys))
}

// reshareSend splits this node's share of an srcBits-wide word into one
// subshare per destination member and ships them under tag/<myIdx>,
// matching vertex.Runtime's reshare wire format.
func (e *engine) reshareSend(share uint64, bits, myIdx int, dst []network.NodeID, tag string) error {
	subs := secretshare.SplitXOR(share, len(dst), bits)
	for y, dest := range dst {
		if err := e.tr.Send(dest, network.Tag(tag, myIdx), vertex.EncodeShares(subs[y:y+1])); err != nil {
			return err
		}
	}
	return nil
}

// reshareRecv collects one subshare from every source member and XORs them
// into this destination member's fresh share.
func (e *engine) reshareRecv(ctx context.Context, src []network.NodeID, tag string) (uint64, error) {
	var fresh uint64
	for m, id := range src {
		data, err := e.tr.Recv(ctx, id, network.Tag(tag, m))
		if err != nil {
			return 0, err
		}
		vals, err := vertex.DecodeShares(data, 1)
		if err != nil {
			return 0, err
		}
		fresh ^= vals[0]
	}
	return fresh, nil
}

// aggregate re-shares vertex states into the aggregation machinery (flat or
// tree-shaped), runs the aggregation MPC with in-MPC noise, and — for
// aggregation-block members — opens the noised result.
func (e *engine) aggregate(ctx context.Context, run *nodeRun, plan *nodeAggPlan) (int64, bool, error) {
	if e.cfg.AggFanIn > 0 && e.graph.N() > e.cfg.AggFanIn {
		return e.aggregateTree(ctx, run, plan)
	}
	g := e.graph
	aggMembers := e.setup.Assignment.AggBlock

	for _, v := range e.memberVertices {
		if err := e.reshareSend(run.stateShare[v], e.prog.StateBits, e.memberIdx[v], aggMembers, network.Tag(run.proto, "aggsh", v)); err != nil {
			return 0, false, err
		}
	}
	if e.aggIdx < 0 {
		return 0, false, nil
	}
	var input []uint8
	for v := 0; v < g.N(); v++ {
		members := e.setup.Assignment.Blocks[g.NodeOf(v)]
		col, err := e.reshareRecv(ctx, members, network.Tag(run.proto, "aggsh", v))
		if err != nil {
			return 0, false, err
		}
		input = append(input, vertex.WordToBits(col, e.prog.StateBits)...)
	}
	noiseBits, err := vertex.RandomInputBits(plan.noise.RandBits())
	if err != nil {
		return 0, false, err
	}
	input = append(input, noiseBits...)
	circ, err := e.aggCircuit(ctx, plan)
	if err != nil {
		return 0, false, err
	}
	outShares, err := run.aggParty.Evaluate(ctx, circ, input)
	if err != nil {
		return 0, false, err
	}
	open, err := run.aggParty.Open(ctx, outShares)
	if err != nil {
		return 0, false, err
	}
	return circuit.DecodeWordS(open), true, nil
}

// aggregateTree is the two-level aggregation tree of §3.6: each group of up
// to AggFanIn vertices is partially aggregated by the block of the group's
// first vertex, and the aggregation block combines the partials and draws
// the noise.
func (e *engine) aggregateTree(ctx context.Context, run *nodeRun, plan *nodeAggPlan) (int64, bool, error) {
	g := e.graph
	fanIn := e.cfg.AggFanIn
	nGroups := (g.N() + fanIn - 1) / fanIn
	aggMembers := e.setup.Assignment.AggBlock
	groupRange := func(grp int) (int, int) {
		lo := grp * fanIn
		hi := lo + fanIn
		if hi > g.N() {
			hi = g.N()
		}
		return lo, hi
	}

	// Phase A: every member ships its state subshares to its group's leaf
	// block. All sends complete before any leaf evaluation blocks.
	for grp := 0; grp < nGroups; grp++ {
		lo, hi := groupRange(grp)
		leafMembers := e.setup.Assignment.Blocks[g.NodeOf(lo)]
		for v := lo; v < hi; v++ {
			mi, ok := e.memberIdx[v]
			if !ok {
				continue
			}
			if err := e.reshareSend(run.stateShare[v], e.prog.StateBits, mi, leafMembers, network.Tag(run.proto, "leafsh", grp, v)); err != nil {
				return 0, false, err
			}
		}
	}

	// Phase B: leaf evaluations, concurrently across the groups whose leaf
	// block contains this node (each group uses a distinct session).
	partial := make(map[int]uint64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for grp := 0; grp < nGroups; grp++ {
		lo, hi := groupRange(grp)
		if _, ok := e.memberIdx[lo]; !ok {
			continue
		}
		grp, lo, hi := grp, lo, hi
		wg.Add(1)
		go func() {
			defer wg.Done()
			partialCirc, err := e.prog.PartialAggregateCircuit(hi - lo)
			if err == nil {
				var input []uint8
				for v := lo; v < hi && err == nil; v++ {
					members := e.setup.Assignment.Blocks[g.NodeOf(v)]
					var col uint64
					col, err = e.reshareRecv(ctx, members, network.Tag(run.proto, "leafsh", grp, v))
					input = append(input, vertex.WordToBits(col, e.prog.StateBits)...)
				}
				if err == nil {
					var outShares []uint8
					outShares, err = run.sessions[lo].Evaluate(ctx, partialCirc, input)
					if err == nil {
						mu.Lock()
						partial[grp] = vertex.BitsToWord(outShares)
						mu.Unlock()
					}
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("leaf aggregation %d: %w", grp, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, false, firstErr
	}

	// Phase C: leaf members ship partial subshares to the root block.
	for grp := 0; grp < nGroups; grp++ {
		lo, _ := groupRange(grp)
		mi, ok := e.memberIdx[lo]
		if !ok {
			continue
		}
		if err := e.reshareSend(partial[grp], e.prog.AggBits, mi, aggMembers, network.Tag(run.proto, "rootsh", grp)); err != nil {
			return 0, false, err
		}
	}

	// Phase D: root combine + noise + open, by aggregation-block members.
	if e.aggIdx < 0 {
		return 0, false, nil
	}
	combineCirc, err := e.prog.CombineCircuit(nGroups, plan.noise)
	if err != nil {
		return 0, false, err
	}
	var input []uint8
	for grp := 0; grp < nGroups; grp++ {
		lo, _ := groupRange(grp)
		leafMembers := e.setup.Assignment.Blocks[g.NodeOf(lo)]
		col, err := e.reshareRecv(ctx, leafMembers, network.Tag(run.proto, "rootsh", grp))
		if err != nil {
			return 0, false, err
		}
		input = append(input, vertex.WordToBits(col, e.prog.AggBits)...)
	}
	noiseBits, err := vertex.RandomInputBits(plan.noise.RandBits())
	if err != nil {
		return 0, false, err
	}
	input = append(input, noiseBits...)
	outShares, err := run.aggParty.Evaluate(ctx, combineCirc, input)
	if err != nil {
		return 0, false, fmt.Errorf("root aggregation: %w", err)
	}
	open, err := run.aggParty.Open(ctx, outShares)
	if err != nil {
		return 0, false, err
	}
	return circuit.DecodeWordS(open), true, nil
}
