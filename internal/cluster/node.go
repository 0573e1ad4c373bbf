package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
	"dstress/internal/tcpnet"
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
	// Chaos, when set, injects one deterministic fault (vertex.Chaos):
	// cancel a context for an in-process crash, or exit the process to
	// mimic kill -9.
	Chaos *vertex.Chaos
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
type NodeResult = vertex.NodeResult

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
	// (the participant keys share registers and GMW sessions by job.Seq),
	// while the participant itself — substrate, caches, setup — stands for
	// the whole session. encMu serializes control-plane encodes (done
	// reports and heartbeat replies) on the shared connection; any job
	// failure is fatal for the daemon (fail-stop). The health-plane state —
	// live trace map, per-job progress, the flight-recorder ring every job's
	// trace feeds — is declared before the decoder goroutine because
	// heartbeats read it.
	flight := obs.NewFlight(0)
	var (
		part       *vertex.Participant
		keys       *recoveryKeys
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
		if part != nil {
			b.Handshakes = part.Handshakes()
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
		// participant setup — before the protocol's first ReportProgress —
		// still ships a phase the post-mortem can name, instead of an empty
		// one.
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
		res, runErr := runJob(jobCtx, part, keys, opt.ID, req)
		if res == nil {
			res = &NodeResult{}
		}
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
		last = res
		stateMu.Unlock()
	}
	handleRecover := func(rm recoverMsg) error {
		stateMu.Lock()
		p := part
		var waits []*runHandle
		for _, r := range rm.Resumes {
			if h := runs[r.Seq]; h != nil && h.attempt < r.Attempt {
				h.superseded = true
				h.cancel()
				waits = append(waits, h)
			}
		}
		stateMu.Unlock()
		if p == nil {
			return fmt.Errorf("cluster: node %d got a recover message before any job", opt.ID)
		}
		// Superseded attempts must fully unwind before the participant's
		// setup-derived state is swapped under them.
		for _, h := range waits {
			<-h.done
		}
		flight.Record(obs.FlightEvent{
			At: time.Now().UnixNano(), Kind: "recover",
			Name: fmt.Sprintf("reblock epoch=%d dead=%d repl=%d", rm.Epoch, rm.Dead, rm.Repl),
			Node: int32(opt.ID),
		})
		if err := applyRecover(p, grp, rm); err != nil {
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
		if part == nil {
			// The participant (and the peer directory) is built
			// synchronously on the first job, so overlapping later jobs
			// always find it standing. The write is published under
			// stateMu because the decoder goroutine reads part when
			// building heartbeat replies.
			ship := func(c vertex.Checkpoint) {
				if err := send(nodeMsg{Ckpt: &c}); err != nil {
					slog.Warn("cluster checkpoint ship failed",
						"node", opt.ID, "query", c.Seq, "barrier", c.Barrier, "error", err)
				}
			}
			p, err := newParticipant(opt.ID, peer, grp, job, secrets, opt.Chaos, ship)
			if err != nil {
				send(nodeMsg{Done: &doneMsg{ID: opt.ID, Seq: job.Seq, Attempt: 1, Err: err.Error()}})
				return nil, err
			}
			stateMu.Lock()
			part = p
			stateMu.Unlock()
			keys = newRecoveryKeys(opt.ID, peer, job.Setup.Blocks)
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
// Node bootstrap: decode and verify the dispatched deployment
// ---------------------------------------------------------------------------

// newParticipant builds this node's protocol engine from the first job:
// compile the program spec, rebuild the public graph, decode the trusted
// party's setup and verify its signatures, and attach a vertex.Participant
// to the TCP peer with the node's own pairwise OT substrate.
func newParticipant(id network.NodeID, peer network.Transport, grp group.Group, job jobMsg, secrets trustedparty.NodeSecrets, chaos *vertex.Chaos, ship func(vertex.Checkpoint)) (*vertex.Participant, error) {
	prog, err := job.Prog.Build()
	if err != nil {
		return nil, err
	}
	n := len(job.Topo.Out)
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
	setup, err := decodeSetup(grp, job.Setup)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	cfg := vertex.Config{
		Group: grp, K: job.Cfg.K, Alpha: job.Cfg.Alpha, NoiseShift: job.Cfg.NoiseShift,
		TablePFail: job.Cfg.TablePFail, AggFanIn: job.Cfg.AggFanIn,
	}
	dep, err := vertex.NewDeployment(cfg, prog, g, setup)
	if err != nil {
		return nil, err
	}
	return vertex.NewParticipant(dep, vertex.ParticipantConfig{
		ID: id, Transport: peer, Secrets: secrets,
		OT:      gmw.SubstrateOT{Sub: ot.NewSubstrate(grp, peer)},
		Recover: job.Recover, Ship: ship, Chaos: chaos,
	})
}

// decodeSetup decodes a trusted-party publication and verifies both of
// its signed artifacts: the assignment, and every block certificate —
// transfers encrypt subshares under the certificate keys, so a tampered
// certificate would hand the ciphertexts to an attacker (§3.4).
func decodeSetup(grp group.Group, wire trustedparty.WireSetup) (*trustedparty.SetupResult, error) {
	setup, err := trustedparty.UnmarshalSetup(grp, wire)
	if err != nil {
		return nil, err
	}
	if !trustedparty.VerifyAssignment(setup.VerifyKey, setup.Assignment) {
		return nil, fmt.Errorf("trusted-party assignment signature invalid")
	}
	for certNode, certs := range setup.Certs {
		for j, c := range certs {
			if !trustedparty.VerifyCert(setup.VerifyKey, grp, c) {
				return nil, fmt.Errorf("certificate %d of node %d has an invalid signature", j, certNode)
			}
		}
	}
	return setup, nil
}

// recoveryKeys runs the fleet recovery key exchange on first use: the
// lowest-id node generates the key and ships it to every peer over the
// data plane, so checkpoint blobs stored by the coordinator stay opaque to
// it (a colluding coordinator+node pair could open them; see DESIGN.md).
// A failed exchange is retried by the next run rather than latched, so one
// canceled query cannot poison the daemon.
type recoveryKeys struct {
	id    network.NodeID
	tr    network.Transport
	fleet []network.NodeID // every registered node, ascending

	mu  sync.Mutex
	key []byte
}

func newRecoveryKeys(id network.NodeID, tr network.Transport, blocks map[network.NodeID][]network.NodeID) *recoveryKeys {
	k := &recoveryKeys{id: id, tr: tr}
	for node := range blocks {
		k.fleet = append(k.fleet, node)
	}
	sort.Slice(k.fleet, func(i, j int) bool { return k.fleet[i] < k.fleet[j] })
	return k
}

func (k *recoveryKeys) get(ctx context.Context) ([]byte, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.key != nil {
		return k.key, nil
	}
	dealer := k.fleet[0]
	if k.id == dealer {
		key, err := vertex.NewRecoveryKey()
		if err != nil {
			return nil, err
		}
		for _, id := range k.fleet[1:] {
			if err := k.tr.Send(id, network.Tag("reckey"), key); err != nil {
				return nil, err
			}
		}
		k.key = key
		return key, nil
	}
	data, err := k.tr.Recv(ctx, dealer, network.Tag("reckey"))
	if err != nil {
		return nil, err
	}
	if len(data) != vertex.RecoveryKeySize {
		return nil, fmt.Errorf("cluster: recovery key has %d bytes, want %d", len(data), vertex.RecoveryKeySize)
	}
	k.key = data
	return data, nil
}

// runJob runs one dispatched or resumed job on the node's participant
// with the node's own inputs (the participant keeps those of any vertex it
// adopted in a recovery) and — with recovery on — the fleet recovery key.
func runJob(ctx context.Context, part *vertex.Participant, keys *recoveryKeys, id network.NodeID, req runReq) (*NodeResult, error) {
	job := req.job
	var key []byte
	if job.Recover {
		var err error
		if key, err = keys.get(ctx); err != nil {
			return nil, err
		}
	}
	return part.Run(ctx, vertex.RunRequest{
		Seq: job.Seq, Attempt: req.attempt, FromBarrier: req.fromBarrier,
		Iterations: job.Iterations, Epsilon: job.Cfg.Epsilon,
		Inputs: map[int]vertex.OwnerInput{int(id) - 1: {InitState: job.InitState, Priv: job.Priv}},
		RecKey: key,
	})
}

// applyRecover verifies a re-blocking's publication and commits it to the
// node's participant. It runs on the control loop after every superseded
// run has unwound; resumed runs spawn only after it returns.
func applyRecover(part *vertex.Participant, grp group.Group, rm recoverMsg) error {
	setup, err := decodeSetup(grp, rm.Setup)
	if err != nil {
		return fmt.Errorf("re-blocked setup: %w", err)
	}
	return part.ApplyRecover(&vertex.Reblocking{
		Dead: rm.Dead, Repl: rm.Repl, Setup: setup,
		AdoptedKeys: rm.AdoptedKeys, AdoptedInputs: rm.AdoptedInputs,
	}, rm.DeadBlobs)
}
