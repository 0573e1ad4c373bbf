package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// Scenario is everything the coordinator needs to stand up one deployment:
// the parameters, the program, the graph (with every owner's private
// inputs — the coordinator is the experiment driver that generated the
// scenario), and the default query (Iterations, Cfg.Epsilon) for
// single-shot runs.
type Scenario struct {
	Cfg        ConfigWire
	Prog       ProgramSpec
	Graph      *vertex.Graph
	Iterations int

	// Heartbeat is the health plane's probe interval (coordinator-local,
	// never on the wire); 0 means one second. StallWindow is how long an
	// in-flight query's slowest node may go without a phase advance before
	// the watchdog flags it; 0 means 30 seconds.
	Heartbeat   time.Duration
	StallWindow time.Duration

	// Recover opts the deployment into failure recovery: nodes checkpoint
	// encrypted share snapshots at every phase barrier, and on an
	// attributed node death the coordinator re-blocks around the casualty
	// and resumes every in-flight query instead of failing the session.
	// Off by default — then a node death is session-fatal (fail-stop),
	// matching the paper's prototype.
	Recover bool

	// ChaosNode and ChaosBarrier inject a deterministic kill into loopback
	// clusters (OpenLoopback only): node ChaosNode dies right after it
	// finishes the compute step of iteration ChaosBarrier of its first
	// query. ChaosNode 0 disables. Multi-process deployments inject faults
	// via NodeOptions.Chaos (or dstress-node's -chaos-barrier) instead.
	ChaosNode    network.NodeID
	ChaosBarrier int
}

// Query parameterizes one execution against a standing deployment.
type Query struct {
	// Iterations is the number of computation+communication steps.
	Iterations int
	// Epsilon is the output-privacy budget for this query; 0 disables the
	// final Laplace noise (correctness tests only).
	Epsilon float64
	// Seq optionally fixes the query id ("q/<Seq>" tag namespace). 0 lets
	// the session assign the next unused id. Callers that bring their own
	// ids (the dstress session facade) must keep them unique per session;
	// a Seq that is still in flight is rejected.
	Seq int
}

// Summary is the coordinator's view of one completed query.
type Summary struct {
	// Result is the opened noised aggregate, agreed by every
	// aggregation-block member.
	Result int64
	// Reports holds each node's per-phase report.
	Reports map[network.NodeID]vertex.Report
	// Stats holds each node's transport counters.
	Stats map[network.NodeID]network.Stats
	// Spans holds each node's span table (offsets relative to that node's
	// own job start on its own clock) and Counters its protocol counters.
	// Nodes always record; both ride the control plane after the query, so
	// collecting them is free on the data-plane path. Clock carries what a
	// merger needs to rebase the offsets onto one timeline: each node's
	// job-start epoch and the heartbeat-estimated clock offset.
	Spans    map[network.NodeID][]obs.Span
	Counters map[network.NodeID]map[string]int64
	Clock    map[network.NodeID]ClockInfo
	// WallTime is the coordinator-observed duration from job dispatch to
	// the last node's report.
	WallTime time.Duration
	// Recoveries counts the re-blockings that happened while this query was
	// in flight; RecoveryEvents is their coordinator-side timeline (death,
	// reblock, and resume events). Both are zero/empty unless the scenario
	// enabled Recover and a node actually died.
	Recoveries     int
	RecoveryEvents []obs.FlightEvent
}

// TotalBytes sums the bytes sent by all nodes.
func (s *Summary) TotalBytes() int64 {
	var t int64
	for _, st := range s.Stats {
		t += st.BytesSent
	}
	return t
}

// MaxNodeBytes returns the largest per-node sent+received byte count — the
// "traffic per node" quantity of Figures 4–6, now measured on real sockets.
func (s *Summary) MaxNodeBytes() int64 {
	var m int64
	for _, st := range s.Stats {
		if v := st.BytesSent + st.BytesReceived; v > m {
			m = v
		}
	}
	return m
}

// AvgNodeBytes returns the mean per-node sent+received byte count.
func (s *Summary) AvgNodeBytes() float64 {
	if len(s.Stats) == 0 {
		return 0
	}
	var t int64
	for _, st := range s.Stats {
		t += st.BytesSent + st.BytesReceived
	}
	return float64(t) / float64(len(s.Stats))
}

// Coordinator serves the control plane for one deployment: it collects node
// registrations, plays the trusted party of §3.4, and then drives one or
// more queries through the standing fleet.
type Coordinator struct {
	sc   Scenario
	grp  group.Group
	prog *vertex.Program
	ln   net.Listener

	// RegisterTimeout bounds the whole registration phase; if fewer than N
	// nodes have connected and registered by then, Open fails with a clear
	// error instead of hanging a partially launched fleet forever. A
	// deadline on Open's context tightens it further. Queries themselves
	// are bounded only by their own context. Defaults to 2 minutes; set it
	// between NewCoordinator and Open to override.
	RegisterTimeout time.Duration

	// HeartbeatInterval and StallWindow override the scenario's health
	// plane parameters when set between NewCoordinator and Open.
	HeartbeatInterval time.Duration
	StallWindow       time.Duration
}

// NewCoordinator validates the scenario and starts listening on ctrlAddr
// ("127.0.0.1:0" picks an ephemeral port; see Addr).
func NewCoordinator(ctrlAddr string, sc Scenario) (*Coordinator, error) {
	if sc.Graph == nil {
		return nil, fmt.Errorf("cluster: scenario has no graph")
	}
	if err := sc.Graph.Finalize(); err != nil {
		return nil, err
	}
	if sc.Graph.N() < sc.Cfg.K+1 {
		return nil, fmt.Errorf("cluster: need at least K+1 = %d nodes, got %d", sc.Cfg.K+1, sc.Graph.N())
	}
	if sc.Iterations < 0 {
		return nil, fmt.Errorf("cluster: negative iteration count %d", sc.Iterations)
	}
	grp, err := group.ByName(sc.Cfg.Group)
	if err != nil {
		return nil, err
	}
	prog, err := sc.Prog.Build()
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", ctrlAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: control listen %s: %w", ctrlAddr, err)
	}
	return &Coordinator{
		sc: sc, grp: grp, prog: prog, ln: ln,
		RegisterTimeout:   2 * time.Minute,
		HeartbeatInterval: sc.Heartbeat,
		StallWindow:       sc.StallWindow,
	}, nil
}

// Addr returns the control-plane address nodes should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close releases the control listener (Open closes it itself on success).
func (c *Coordinator) Close() error { return c.ln.Close() }

// Run drives one full single-shot execution: Open, one query with the
// scenario's default parameters, Close. It blocks until every node has
// reported (or a control-plane error / context cancellation).
func (c *Coordinator) Run(ctx context.Context) (*Summary, error) {
	sess, err := c.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Run(ctx, Query{Iterations: c.sc.Iterations, Epsilon: c.sc.Cfg.Epsilon})
}

type nodeConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	addr string
	reg  trustedparty.NodeRegistration

	// writeMu serializes encodes on this connection: heartbeat pings
	// interleave with job dispatches (dispatchMu still orders whole-fleet
	// dispatches; this leaf lock only keeps individual gob messages whole).
	writeMu sync.Mutex
}

// send encodes one control message under the connection's write lock.
func (nc *nodeConn) send(m ctrlMsg) error {
	nc.writeMu.Lock()
	defer nc.writeMu.Unlock()
	return nc.enc.Encode(m)
}

// Session is a standing deployment: registration and trusted-party setup
// have completed, every node keeps its control connection, and OT
// handshakes survive across queries. Runs may overlap: each dispatches a
// jobMsg under its own query id and a per-node reader routes doneMsgs back
// by Seq, so several queries can be in flight on one fleet concurrently.
type Session struct {
	c         *Coordinator
	conns     map[network.NodeID]*nodeConn
	ids       []network.NodeID
	setup     *trustedparty.SetupResult
	wireSetup trustedparty.WireSetup
	directory map[network.NodeID]string

	// dispatchMu serializes whole-fleet job dispatches: every node must see
	// the session's jobs in the same order (the setup-carrying first job in
	// particular must be first on every control connection), and gob
	// encoders are not otherwise concurrency-safe.
	dispatchMu sync.Mutex

	mu        sync.Mutex
	jobsSent  int
	setupSent bool
	pending   map[int]chan doneMsg // in-flight queries by Seq
	closed    bool

	// --- Failure-recovery plane (active when the scenario sets Recover).
	recoverOn bool
	// tp and regs are retained from Open so a recovery can re-run the
	// trusted party's blocking over the surviving registrations.
	tp   *trustedparty.TrustedParty
	regs []trustedparty.NodeRegistration
	// recMu single-flights re-blocking: several collect loops (and death
	// notices) can observe the same casualty concurrently, and exactly one
	// recovery must win.
	recMu sync.Mutex
	// deathCh carries read-loop death notices to whichever collect loop
	// selects first. Buffered to fleet size so readers never block.
	deathCh chan network.NodeID
	// Under mu: per-seq attempt numbers and dispatch specs, the checkpoint
	// table (seq → node → barrier → encrypted blob, opaque to the
	// coordinator), the recovery counter, and the recovery event log.
	attempts   map[int]int
	specs      map[int]querySpec
	ckpts      map[int]map[network.NodeID]map[int][]byte
	recoveries int
	recEvents  []obs.FlightEvent

	// Health plane state: the live fleet model fed by heartbeats, the
	// probe/watchdog parameters, and the pinger goroutine's stop signal.
	health   *fleetHealth
	hbEvery  time.Duration
	stallWin time.Duration
	hbStop   chan struct{}
	hbOnce   sync.Once
	hbDone   chan struct{}

	// Reader failure state: any control-plane read error is fatal for the
	// whole session (fail-stop), so the first one is recorded — with the
	// connection it happened on — and readDone closed to wake every
	// in-flight Run.
	readOnce sync.Once
	readErr  error
	failNode network.NodeID
	readDone chan struct{}
}

// querySpec retains what the coordinator needs to rebuild a query's job
// messages when a recovery resumes it: the per-query config (epsilon
// included) and iteration count.
type querySpec struct {
	cfg        ConfigWire
	iterations int
}

// readLoop is the per-node message router: it owns node id's decoder for
// the session's lifetime, folds heartbeat replies into the health model,
// archives checkpoint blobs, and delivers each report to the Run that is
// waiting on its Seq. Without recovery, any decode error, identity
// mismatch, or report for an unknown query kills the session; with it, a
// decode error becomes a death notice and stray reports from superseded
// attempts are dropped.
func (s *Session) readLoop(id network.NodeID, nc *nodeConn) {
	for {
		var m nodeMsg
		if err := nc.dec.Decode(&m); err != nil {
			s.health.observeConnLoss(id, time.Now())
			if s.noteDeath(id, err) {
				return
			}
			s.failReads(id, fmt.Errorf("cluster: node %d: reading report: %w", id, err))
			return
		}
		if m.Beat != nil {
			s.health.observeBeat(id, m.Beat, time.Now())
			continue
		}
		if m.Ckpt != nil {
			s.storeCkpt(id, m.Ckpt)
			continue
		}
		if m.Done == nil {
			s.failReads(id, fmt.Errorf("cluster: node %d sent an empty message", id))
			return
		}
		d := *m.Done
		if d.ID != id {
			s.failReads(id, fmt.Errorf("cluster: report id %d on node %d's connection", d.ID, id))
			return
		}
		s.mu.Lock()
		ch := s.pending[d.Seq]
		s.mu.Unlock()
		if ch == nil {
			if s.recoverOn {
				// A superseded attempt's report can trail in after the
				// resumed attempt already completed the query.
				slog.Debug("cluster: dropping report for inactive query",
					"node", id, "query", d.Seq, "attempt", d.Attempt)
				continue
			}
			s.failReads(id, fmt.Errorf("cluster: node %d reported unknown query %d", id, d.Seq))
			return
		}
		ch <- d // buffered past fleet size; see Run
	}
}

// noteDeath routes a control-connection loss into the recovery plane.
// Returns false when recovery is off or the session is closing (normal
// teardown breaks connections too) — the caller then fail-stops as before.
func (s *Session) noteDeath(id network.NodeID, err error) bool {
	if !s.recoverOn {
		return false
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false
	}
	slog.Warn("cluster: node control connection lost", "node", id, "error", err)
	select {
	case s.deathCh <- id:
	default: // a notice for this fleet state is already queued
	}
	return true
}

// storeCkpt archives one node's encrypted barrier snapshot. The coordinator
// holds no recovery key: blobs are opaque and only ever handed back to the
// replacement of a dead node.
func (s *Session) storeCkpt(id network.NodeID, c *vertex.Checkpoint) {
	if !s.recoverOn {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byNode := s.ckpts[c.Seq]
	if byNode == nil {
		byNode = make(map[network.NodeID]map[int][]byte)
		s.ckpts[c.Seq] = byNode
	}
	byBarrier := byNode[id]
	if byBarrier == nil {
		byBarrier = make(map[int][]byte)
		byNode[id] = byBarrier
	}
	byBarrier[c.Barrier] = c.Blob
}

func (s *Session) failReads(id network.NodeID, err error) {
	s.readOnce.Do(func() {
		s.failNode = id
		s.readErr = err
		close(s.readDone)
	})
}

// heartbeatLoop is the session's pinger and watchdog: one immediate ping
// round primes the clock estimators, then every interval it probes the
// fleet and checks in-flight queries for stalls. It runs until abort/Close.
func (s *Session) heartbeatLoop() {
	defer close(s.hbDone)
	s.pingAll()
	t := time.NewTicker(s.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-s.hbStop:
			return
		case <-t.C:
			s.pingAll()
			s.health.checkStalls(time.Now(), s.stallWin)
		}
	}
}

// pingAll sends one heartbeat probe to every node. A failed send is only
// logged: the node's read loop owns failure detection, and the silence
// shows up as heartbeat age.
func (s *Session) pingAll() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Snapshot under mu: a recovery shrinks ids/conns concurrently.
	conns := make([]*nodeConn, 0, len(s.ids))
	ids := make([]network.NodeID, 0, len(s.ids))
	for _, id := range s.ids {
		ids = append(ids, id)
		conns = append(conns, s.conns[id])
	}
	s.mu.Unlock()
	now := time.Now().UnixNano()
	for i, nc := range conns {
		if err := nc.send(ctrlMsg{Ping: &pingMsg{T1: now}}); err != nil {
			slog.Debug("cluster heartbeat ping failed", "node", ids[i], "err", err)
		}
	}
}

// stopHeartbeat ends the pinger; safe to call more than once.
func (s *Session) stopHeartbeat() {
	s.hbOnce.Do(func() { close(s.hbStop) })
}

// Health returns a live snapshot of the standing fleet: per-node heartbeat
// age, clock offset, runtime stats, open spans, and the in-flight/stalled
// query sets.
func (s *Session) Health() *FleetHealth {
	return s.health.snapshot(time.Now())
}

// postMortem names the dead node after a query failure: probe the whole
// fleet once more and watch who answers. Live nodes reply to a ping within
// a round trip, but under heavy load a slow survivor can take much longer
// than any fixed window — so instead of a deadline alone, the poll waits
// for the silent set to SETTLE: only once it has not shrunk for a couple
// of heartbeat intervals is whoever remains silent called the casualty
// (the regular heartbeat loop keeps re-probing in the background, so a
// live straggler's eventual reply shrinks the set and resets the clock).
// A silent node whose control connection already failed is named at once;
// otherwise the settled set's longest-silent node is. Returns false when
// everyone answered (the failure was a protocol error or a caller abort,
// not a death) — the caller then keeps its direct attribution.
func (s *Session) postMortem() (network.NodeID, bool) {
	probe := time.Now()
	s.pingAll()
	settle := 2 * s.hbEvery
	if settle < 150*time.Millisecond {
		settle = 150 * time.Millisecond
	}
	if settle > time.Second {
		settle = time.Second
	}
	limit := 6 * s.hbEvery
	if limit < 2*time.Second {
		limit = 2 * time.Second
	}
	if limit > 5*time.Second {
		limit = 5 * time.Second
	}
	deadline := probe.Add(limit)
	lastLen := -1
	lastShrink := probe
	for {
		dead, lost := s.health.silentSince(probe)
		if len(dead) == 0 {
			return 0, false
		}
		if lost {
			// Its control connection is gone: no reply can still come.
			return dead[0], true
		}
		now := time.Now()
		if len(dead) != lastLen {
			lastLen, lastShrink = len(dead), now
		}
		if now.Sub(lastShrink) >= settle || !now.Before(deadline) {
			return dead[0], true
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// queryError assembles the health plane's enriched failure: post-mortem
// node attribution, the node's last reported phase, heartbeat staleness,
// and the flight-recorder tail (the node's own if it shipped one, the
// coordinator-side ring otherwise).
func (s *Session) queryError(seq int, node network.NodeID, lastPhase string, events []obs.FlightEvent, cause string) error {
	if dead, ok := s.postMortem(); ok {
		node = dead
	}
	ringPhase, beatAge, ring := s.health.failureInfo(node, seq)
	if lastPhase == "" {
		lastPhase = ringPhase
	}
	if len(events) == 0 {
		events = ring
	}
	return &QueryError{
		Seq: seq, Node: node, LastPhase: lastPhase,
		BeatAge: beatAge, Events: events, Cause: cause,
	}
}

// Open runs the registration phase — accept one control connection per
// node, hand out the public parameters, collect registrations — and the
// trusted-party setup of §3.4 over them, returning the standing session.
// Registration is bounded by ctx's deadline and RegisterTimeout, whichever
// is earlier; cancellation aborts the accept loop.
func (c *Coordinator) Open(ctx context.Context) (*Session, error) {
	g := c.sc.Graph
	n := g.N()
	params := trustedparty.Params{Group: c.grp, K: c.sc.Cfg.K, D: g.D, L: c.prog.MsgBits, Recoverable: c.sc.Recover}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	// --- Registration: accept one connection per node, hand out the public
	// parameters, and collect registrations (concurrently: nodes connect in
	// any order).
	type regResult struct {
		id network.NodeID
		nc *nodeConn
		e  error
	}
	regCh := make(chan regResult, n)
	// Every accepted connection is closed if Open fails, whether or not
	// its registration completed: a node blocked in its control-plane
	// handshake must be released when the coordinator aborts.
	var accepted []net.Conn
	ok := false
	defer func() {
		if !ok {
			// A failed Open must release everything it held: the blocked
			// nodes and the listener (nothing else will ever close it).
			for _, c := range accepted {
				c.Close()
			}
			c.ln.Close()
		}
	}()
	// RegisterTimeout ≤ 0 disables the coordinator-side bound; ctx's
	// deadline (if any) still applies.
	var regDeadline time.Time
	if c.RegisterTimeout > 0 {
		regDeadline = time.Now().Add(c.RegisterTimeout)
	}
	if d, has := ctx.Deadline(); has && (regDeadline.IsZero() || d.Before(regDeadline)) {
		regDeadline = d
	}
	if !regDeadline.IsZero() {
		if tl, isTCP := c.ln.(*net.TCPListener); isTCP {
			tl.SetDeadline(regDeadline)
		}
	}
	// Cancellation closes the listener so a blocked Accept returns.
	stopAccept := context.AfterFunc(ctx, func() { c.ln.Close() })
	defer stopAccept()
	for i := 0; i < n; i++ {
		conn, err := c.ln.Accept()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, fmt.Errorf("cluster: registration canceled after %d of %d nodes: %w", i, n, ctxErr)
			}
			return nil, fmt.Errorf("cluster: control accept (%d of %d nodes registered before the registration deadline): %w",
				i, n, err)
		}
		accepted = append(accepted, conn)
		conn.SetDeadline(regDeadline)
		go func(conn net.Conn) {
			nc := &nodeConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
			var hello helloMsg
			if err := nc.dec.Decode(&hello); err != nil {
				regCh <- regResult{e: fmt.Errorf("cluster: reading hello: %w", err)}
				return
			}
			nc.addr = hello.DataAddr
			if err := nc.enc.Encode(paramsMsg{Group: c.sc.Cfg.Group, K: c.sc.Cfg.K, D: g.D, L: c.prog.MsgBits}); err != nil {
				regCh <- regResult{id: hello.ID, e: fmt.Errorf("cluster: sending params: %w", err)}
				return
			}
			var rm regMsg
			if err := nc.dec.Decode(&rm); err != nil {
				regCh <- regResult{id: hello.ID, e: fmt.Errorf("cluster: reading registration: %w", err)}
				return
			}
			reg, err := trustedparty.UnmarshalRegistration(c.grp, rm.Reg)
			if err != nil {
				regCh <- regResult{id: hello.ID, e: err}
				return
			}
			if reg.ID != hello.ID {
				regCh <- regResult{id: hello.ID, e: fmt.Errorf("cluster: registration id %d != hello id %d", reg.ID, hello.ID)}
				return
			}
			nc.reg = reg
			regCh <- regResult{id: hello.ID, nc: nc}
		}(conn)
	}
	conns := make(map[network.NodeID]*nodeConn, n)
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case r := <-regCh:
			if r.e != nil {
				return nil, r.e
			}
			if r.id < 1 || int(r.id) > n {
				return nil, fmt.Errorf("cluster: node id %d outside [1,%d]", r.id, n)
			}
			if _, dup := conns[r.id]; dup {
				return nil, fmt.Errorf("cluster: duplicate node id %d", r.id)
			}
			conns[r.id] = r.nc
		}
	}
	// Registration is complete; queries may take arbitrarily long, so lift
	// the handshake deadline from the control connections and stop
	// accepting new ones.
	for _, nc := range conns {
		nc.conn.SetDeadline(time.Time{})
	}
	c.ln.Close()

	// --- Trusted-party setup over the collected registrations.
	tp, err := trustedparty.New(params)
	if err != nil {
		return nil, err
	}
	ids := make([]network.NodeID, 0, n)
	for id := range conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	regs := make([]trustedparty.NodeRegistration, 0, n)
	for _, id := range ids {
		regs = append(regs, conns[id].reg)
	}
	setup, err := tp.Setup(regs)
	if err != nil {
		return nil, err
	}
	directory := make(map[network.NodeID]string, n)
	for id, nc := range conns {
		directory[id] = nc.addr
	}
	ok = true
	hbEvery := c.HeartbeatInterval
	if hbEvery <= 0 {
		hbEvery = defaultHeartbeat
	}
	stallWin := c.StallWindow
	if stallWin <= 0 {
		stallWin = defaultStallWindow
	}
	sess := &Session{
		c: c, conns: conns, ids: ids, setup: setup,
		wireSetup: trustedparty.MarshalSetup(c.grp, setup),
		directory: directory,
		pending:   make(map[int]chan doneMsg),
		health:    newFleetHealth(ids),
		hbEvery:   hbEvery,
		stallWin:  stallWin,
		hbStop:    make(chan struct{}),
		hbDone:    make(chan struct{}),
		readDone:  make(chan struct{}),
		recoverOn: c.sc.Recover,
		tp:        tp,
		regs:      regs,
		deathCh:   make(chan network.NodeID, n),
		attempts:  make(map[int]int),
		specs:     make(map[int]querySpec),
		ckpts:     make(map[int]map[network.NodeID]map[int][]byte),
	}
	for _, id := range ids {
		go sess.readLoop(id, conns[id])
	}
	go sess.heartbeatLoop()
	return sess, nil
}

// Run dispatches one query to the standing fleet and collects the reports.
// The first query ships the topology, directory, and signed setup; later
// queries ship only the per-query parameters and the owners' (possibly
// updated) private inputs. Runs may overlap: each query's protocol traffic
// lives under its own "q/<Seq>" tag namespace and its reports are routed
// back by Seq. Without Scenario.Recover, a node failure or context
// cancellation aborts the whole session — fail-stop, matching the paper's
// prototype. With it, an attributed node death re-blocks the fleet around
// the casualty and resumes the query from its last common checkpoint
// barrier; only unattributable failures (or a failed recovery) abort.
func (s *Session) Run(ctx context.Context, q Query) (*Summary, error) {
	if q.Iterations < 0 {
		return nil, fmt.Errorf("cluster: negative iteration count %d", q.Iterations)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("cluster: session is closed")
	}
	seq := q.Seq
	if seq <= 0 {
		seq = s.jobsSent + 1
	}
	if _, dup := s.pending[seq]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("cluster: query %d is already in flight", seq)
	}
	if seq > s.jobsSent {
		s.jobsSent = seq
	}
	// Buffered past fleet size so the per-node readers never block on a
	// collect loop that is busy recovering: with re-blocking, one query can
	// see up to one report per node per attempt.
	ch := make(chan doneMsg, 4*len(s.ids))
	s.pending[seq] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, seq)
		delete(s.attempts, seq)
		delete(s.specs, seq)
		delete(s.ckpts, seq)
		s.mu.Unlock()
	}()
	// Register with the health plane: the stall watchdog tracks the query
	// from dispatch, and a driver-side progress callback (if the context
	// carries one) receives the fleet's slowest-node phase live.
	s.health.watch(seq, obs.ProgressFrom(ctx))
	defer s.health.unwatch(seq)

	g := s.c.sc.Graph
	n := g.N()
	cfg := s.c.sc.Cfg
	cfg.Epsilon = q.Epsilon

	// On any failure below the session is unusable: release the fleet so
	// every node fails fast instead of waiting on dead counterparties.
	sum, err := s.runQuery(ctx, q, cfg, g, n, seq, ch)
	if err != nil {
		s.abort()
		return nil, err
	}
	return sum, nil
}

func (s *Session) runQuery(ctx context.Context, q Query, cfg ConfigWire, g *vertex.Graph, n int, seq int, ch chan doneMsg) (*Summary, error) {
	// --- Dispatch the job; this triggers the query. The whole fleet loop
	// holds dispatchMu so overlapping Runs cannot interleave their jobs
	// across connections: every node sees the same job order.
	start := time.Now()
	s.mu.Lock()
	s.specs[seq] = querySpec{cfg: cfg, iterations: q.Iterations}
	recStart, evStart := s.recoveries, len(s.recEvents)
	s.mu.Unlock()
	s.dispatchMu.Lock()
	// Snapshot the fleet while holding dispatchMu: a recovery both shrinks
	// ids and sends its own control traffic under the same lock, so the
	// snapshot can never name a retired connection. The setup-carrying
	// first job is claimed under the same lock, so it is the first job on
	// every connection even when Runs race to dispatch.
	s.mu.Lock()
	live := append([]network.NodeID(nil), s.ids...)
	first := !s.setupSent
	s.setupSent = true
	s.mu.Unlock()
	slog.Debug("cluster query dispatch", "query", seq, "nodes", n, "iterations", q.Iterations, "epsilon", q.Epsilon, "first", first)
	for _, id := range live {
		job := jobMsg{
			Cfg:        cfg,
			Prog:       s.c.sc.Prog,
			InitState:  g.InitState[id-1],
			Priv:       g.Priv[id-1],
			Iterations: q.Iterations,
			Seq:        seq,
			Attempt:    1,
			Recover:    s.recoverOn,
		}
		if first {
			job.Topo = TopologyWire{D: g.D, Out: g.Out}
			job.Directory = s.directory
			job.Setup = s.wireSetup
		}
		if err := s.conns[id].send(ctrlMsg{Job: &job}); err != nil {
			s.dispatchMu.Unlock()
			// With recovery on, a mid-dispatch connection loss is a death
			// like any other: re-block around it, which also resumes this
			// very query (it is already pending) on the shrunken fleet.
			if s.recoverOn && !first {
				if rerr := s.recoverDead(id, seq, 0); rerr == nil {
					goto collect
				}
			}
			return nil, fmt.Errorf("cluster: dispatching job to node %d: %w", id, err)
		}
	}
	s.dispatchMu.Unlock()

collect:
	// --- Collect this query's reports, routed here by the session readers.
	// With recovery off, the fleet is fixed and exactly n clean reports
	// complete the query. With it, completion means: every currently-live
	// node has reported for the query's current attempt — a re-blocking
	// mid-collect shrinks the fleet, bumps the attempt, and discards
	// superseded reports.
	sum := &Summary{
		Reports:  make(map[network.NodeID]vertex.Report, n),
		Stats:    make(map[network.NodeID]network.Stats, n),
		Spans:    make(map[network.NodeID][]obs.Span, n),
		Counters: make(map[network.NodeID]map[string]int64, n),
	}
	got := make(map[network.NodeID]doneMsg, n)
	for {
		s.mu.Lock()
		attempt := s.attempts[seq]
		if attempt == 0 {
			attempt = 1
		}
		liveNow := append([]network.NodeID(nil), s.ids...)
		s.mu.Unlock()
		complete := true
		for _, id := range liveNow {
			if d, ok := got[id]; !ok || normAttempt(d.Attempt) != attempt {
				complete = false
				break
			}
		}
		if complete {
			live = liveNow
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.readDone:
			return nil, s.queryError(seq, s.failNode, "", nil, s.readErr.Error())
		case dead := <-s.deathCh:
			if err := s.recoverDead(dead, seq, 0); err != nil {
				return nil, s.queryError(seq, dead, "", nil, err.Error())
			}
		case d := <-ch:
			if normAttempt(d.Attempt) != attempt {
				slog.Debug("cluster: discarding superseded report",
					"query", seq, "node", d.ID, "attempt", d.Attempt, "current", attempt)
				continue
			}
			if d.Err != "" {
				if s.recoverOn {
					// The run failed but the node survives: some peer died
					// mid-protocol. Attribute and re-block; the query
					// resumes on the shrunken fleet.
					if err := s.recoverDead(0, seq, attempt); err == nil {
						continue
					}
				}
				return nil, s.queryError(seq, d.ID, d.LastPhase, d.Flight, d.Err)
			}
			got[d.ID] = d
			slog.Debug("cluster node reported", "query", seq, "node", d.ID,
				"bytes_sent", d.Stats.BytesSent, "spans", len(d.Spans))
		}
	}
	var results []int64
	epochs := make(map[network.NodeID]int64, n)
	for _, id := range live {
		d := got[id]
		sum.Reports[d.ID] = d.Report
		sum.Stats[d.ID] = d.Stats
		sum.Spans[d.ID] = d.Spans
		sum.Counters[d.ID] = d.Counters
		epochs[d.ID] = d.Epoch
		if d.HasResult {
			results = append(results, d.Result)
		}
	}
	sum.WallTime = time.Since(start)
	sum.Clock = make(map[network.NodeID]ClockInfo, n)
	for id, epoch := range epochs {
		ci := s.health.clockInfo(id)
		ci.EpochUnixNS = epoch
		sum.Clock[id] = ci
	}
	s.mu.Lock()
	sum.Recoveries = s.recoveries - recStart
	if evEnd := len(s.recEvents); evEnd > evStart {
		sum.RecoveryEvents = append([]obs.FlightEvent(nil), s.recEvents[evStart:evEnd]...)
	}
	aggWant := len(s.setup.Assignment.AggBlock)
	s.mu.Unlock()
	slog.Debug("cluster query complete", "query", seq, "wall_ms", sum.WallTime.Milliseconds(),
		"total_bytes", sum.TotalBytes(), "recoveries", sum.Recoveries)

	// Every aggregation-block member opened the aggregate; they must agree.
	if len(results) != aggWant {
		return nil, fmt.Errorf("cluster: %d nodes reported a result, want %d aggregation members", len(results), aggWant)
	}
	for _, r := range results[1:] {
		if r != results[0] {
			return nil, fmt.Errorf("cluster: aggregation members disagree: %d vs %d", results[0], r)
		}
	}
	sum.Result = results[0]
	return sum, nil
}

// normAttempt maps the wire attempt field (0 on pre-recovery builds and
// fresh dispatches) to its logical value.
func normAttempt(a int) int {
	if a < 1 {
		return 1
	}
	return a
}

// resumePlan is the coordinator's decision for one in-flight query during a
// recovery: its new attempt number and the barrier it resumes from.
type resumePlan struct {
	seq, attempt, barrier int
	spec                  querySpec
}

// resumeJob rebuilds node id's job message for a resumed attempt of one
// in-flight query. Topology, directory, and setup are omitted: the fleet is
// standing and the enclosing recoverMsg carries the new setup.
func (s *Session) resumeJob(id network.NodeID, p resumePlan) jobMsg {
	g := s.c.sc.Graph
	return jobMsg{
		Cfg:        p.spec.cfg,
		Prog:       s.c.sc.Prog,
		InitState:  g.InitState[id-1],
		Priv:       g.Priv[id-1],
		Iterations: p.spec.iterations,
		Seq:        p.seq,
		Attempt:    p.attempt,
		Recover:    true,
	}
}

// recoverDead re-blocks the session around one dead node and resumes every
// in-flight query on the shrunken fleet. hint names the casualty when the
// caller watched its control connection die; 0 asks the post-mortem probe
// to attribute one from heartbeat silence. attempt (when non-zero) is the
// query attempt whose failure report prompted the call — if a concurrent
// recovery already superseded that attempt, the call is a stale duplicate
// and succeeds as a no-op.
func (s *Session) recoverDead(hint network.NodeID, seq, attempt int) error {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	hintLive := hint != 0 && slices.Contains(s.ids, hint)
	cur := normAttempt(s.attempts[seq])
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("cluster: session closed during recovery")
	}
	if hint != 0 && !hintLive {
		return nil // an earlier recovery already handled this death
	}
	if hint == 0 && attempt != 0 && attempt != cur {
		return nil // the failure belonged to a superseded attempt
	}
	// Pause the stall watchdog: every in-flight query is frozen at its
	// resume barrier until the recovered fleet re-enters the schedule, and
	// that silence is not a stall.
	s.health.beginRecovery()
	defer s.health.endRecovery(time.Now())
	dead, ok := s.postMortem()
	if !ok {
		if hint == 0 {
			return fmt.Errorf("cluster: query %d failed but every node answers pings: unrecoverable protocol error", seq)
		}
		dead = hint
	}
	s.mu.Lock()
	candidates := append([]network.NodeID(nil), s.ids...)
	setup := s.setup
	s.mu.Unlock()
	if !slices.Contains(candidates, dead) {
		return nil // already re-blocked around this casualty
	}

	rb, err := vertex.PlanReblock(s.tp, setup, s.regs, s.c.sc.Graph, candidates, dead)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	repl := rb.Repl
	wireNext := trustedparty.MarshalSetup(s.c.grp, rb.Setup)

	// Commit: bump every in-flight query's attempt, retire the casualty,
	// swap the setup, and announce under dispatchMu so the recovery message
	// orders before any later job on every control connection.
	now := time.Now().UnixNano()
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	s.mu.Lock()
	epoch := s.recoveries + 1
	var plans []resumePlan
	deadBlobs := make(map[int][]byte)
	for q := range s.pending {
		b := vertex.MinBarrier(s.ckpts[q], s.ids)
		na := normAttempt(s.attempts[q]) + 1
		s.attempts[q] = na
		plans = append(plans, resumePlan{seq: q, attempt: na, barrier: b, spec: s.specs[q]})
		if b >= 0 {
			deadBlobs[q] = s.ckpts[q][dead][b]
		}
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].seq < plans[j].seq })
	s.setup = rb.Setup
	s.wireSetup = wireNext
	deadConn := s.conns[dead]
	delete(s.conns, dead)
	liveNow := make([]network.NodeID, 0, len(s.ids)-1)
	for _, id := range s.ids {
		if id != dead {
			liveNow = append(liveNow, id)
		}
	}
	s.ids = liveNow
	s.recoveries++
	evs := []obs.FlightEvent{
		{At: now, Kind: "recover", Name: fmt.Sprintf("death node=%d", dead), Node: int32(dead)},
		{At: now, Kind: "recover", Name: fmt.Sprintf("reblock epoch=%d dead=%d repl=%d", epoch, dead, repl), Node: int32(repl)},
	}
	for _, p := range plans {
		evs = append(evs, obs.FlightEvent{
			At: now, Kind: "recover",
			Name:  fmt.Sprintf("resume attempt=%d barrier=%d", p.attempt, p.barrier),
			Query: network.Tag("q", p.seq), Node: int32(repl),
		})
	}
	s.recEvents = append(s.recEvents, evs...)
	s.mu.Unlock()
	if deadConn != nil {
		deadConn.conn.Close()
	}
	s.health.markDead(dead)

	var firstErr error
	for _, id := range liveNow {
		rm := recoverMsg{Epoch: epoch, Dead: dead, Repl: repl, Setup: wireNext}
		if id == repl {
			rm.AdoptedKeys = rb.AdoptedKeys
			rm.AdoptedInputs = rb.AdoptedInputs
			rm.DeadBlobs = deadBlobs
		}
		for _, p := range plans {
			rm.Resumes = append(rm.Resumes, resumeSpec{
				Seq: p.seq, Attempt: p.attempt, Barrier: p.barrier,
				Job: s.resumeJob(id, p),
			})
		}
		s.mu.Lock()
		nc := s.conns[id]
		s.mu.Unlock()
		if nc == nil {
			continue
		}
		if err := nc.send(ctrlMsg{Recover: &rm}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: sending recovery to node %d: %w", id, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	slog.Info("cluster recovered around dead node",
		"epoch", epoch, "dead", dead, "repl", repl, "resumed", len(plans))
	return nil
}

// abort closes every control connection without the shutdown handshake;
// nodes observe the loss, cancel any in-flight query, and exit with an
// error.
func (s *Session) abort() {
	s.stopHeartbeat()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, nc := range s.conns {
		nc.conn.Close()
	}
}

// Close shuts the standing fleet down cleanly: every node receives a
// shutdown message and exits with its last result. Safe to call after a
// failed Run (the session is already aborted then).
func (s *Session) Close() error {
	s.stopHeartbeat()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Copy: a recovery may have shrunk the map, and the map itself must not
	// be iterated outside mu.
	conns := make([]*nodeConn, 0, len(s.conns))
	for _, nc := range s.conns {
		conns = append(conns, nc)
	}
	s.mu.Unlock()
	// The pinger must be fully stopped before the shutdown handshake: a
	// ping interleaved after a node processed its shutdown job would race
	// the connection teardown.
	<-s.hbDone
	var firstErr error
	s.dispatchMu.Lock()
	for _, nc := range conns {
		if err := nc.send(ctrlMsg{Job: &jobMsg{Shutdown: true}}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: shutting down: %w", err)
		}
	}
	s.dispatchMu.Unlock()
	for _, nc := range conns {
		nc.conn.Close()
	}
	return firstErr
}

// Loopback is a complete standing cluster in this process — a coordinator
// session plus one node goroutine per vertex, each with its own TCP data
// plane. Every message crosses a real socket. It exists for dstress-run's
// -transport tcp, the end-to-end tests, and the facade's cluster engine;
// multi-process deployments drive Coordinator and RunNode directly.
type Loopback struct {
	sess     *Session
	cancel   context.CancelFunc
	nodeWg   sync.WaitGroup
	nodeErrs chan error
}

// OpenLoopback stands the cluster up: coordinator on an ephemeral loopback
// port, one RunNode goroutine per vertex, registration and trusted-party
// setup completed. The nodes live until Close (or a failed Run).
func OpenLoopback(ctx context.Context, sc Scenario) (*Loopback, error) {
	co, err := NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		return nil, err
	}
	n := sc.Graph.N()
	// Node lifetime is the cluster's, not the opening context's: a
	// canceled Open must still tear the fleet down, which nodeCtx does.
	// WithoutCancel keeps ctx's values while detaching its cancellation.
	nodeCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	lb := &Loopback{cancel: cancel, nodeErrs: make(chan error, n)}
	for id := 1; id <= n; id++ {
		id := network.NodeID(id)
		opts := NodeOptions{ID: id, CoordAddr: co.Addr(), ListenAddr: "127.0.0.1:0"}
		runCtx := nodeCtx
		chaosVictim := sc.ChaosNode != 0 && id == sc.ChaosNode
		if chaosVictim {
			// The chaos victim gets its own cancelable context: Kill drops
			// the whole node — control and data planes — exactly as a
			// process death would, without touching its peers.
			vctx, vcancel := context.WithCancel(nodeCtx)
			runCtx = vctx
			opts.Chaos = &vertex.Chaos{Barrier: sc.ChaosBarrier, Kill: vcancel}
		}
		lb.nodeWg.Add(1)
		go func() {
			defer lb.nodeWg.Done()
			if _, err := RunNode(runCtx, opts); err != nil {
				if chaosVictim {
					return // its death is the experiment, not a failure
				}
				lb.nodeErrs <- fmt.Errorf("node %d: %w", id, err)
			}
		}()
	}
	sess, err := co.Open(ctx)
	if err != nil {
		cancel()
		lb.nodeWg.Wait()
		return nil, err
	}
	lb.sess = sess
	return lb, nil
}

// Run executes one query on the standing loopback cluster.
func (l *Loopback) Run(ctx context.Context, q Query) (*Summary, error) {
	return l.sess.Run(ctx, q)
}

// Health returns the live fleet health of the standing loopback cluster.
func (l *Loopback) Health() *FleetHealth {
	return l.sess.Health()
}

// Close shuts the fleet down and reports the first node error, if any. The
// shutdown handshake (or, after a failed Run, the closed control
// connections) makes every node exit on its own; canceling their context
// up front would race the in-flight shutdown message, so cancellation is
// only the watchdog for a node that fails to exit.
func (l *Loopback) Close() error {
	err := l.sess.Close()
	exited := make(chan struct{})
	go func() {
		l.nodeWg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		l.cancel()
		<-exited
	}
	l.cancel()
	close(l.nodeErrs)
	for nodeErr := range l.nodeErrs {
		if err == nil {
			err = nodeErr
		}
	}
	return err
}

// RunLoopback stands up a loopback cluster, runs the scenario's default
// query through it, and tears it down.
func RunLoopback(ctx context.Context, sc Scenario) (*Summary, error) {
	lb, err := OpenLoopback(ctx, sc)
	if err != nil {
		return nil, err
	}
	sum, runErr := lb.Run(ctx, Query{Iterations: sc.Iterations, Epsilon: sc.Cfg.Epsilon})
	closeErr := lb.Close()
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return sum, nil
}
