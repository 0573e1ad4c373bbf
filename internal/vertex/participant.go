package vertex

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/gmw"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
	"dstress/internal/secretshare"
	"dstress/internal/transfer"
	"dstress/internal/trustedparty"
)

// Deployment holds what every participant of one deployment shares and
// never mutates: the program and public graph, the trusted party's
// verified setup the deployment opened with, the compiled update circuit,
// the transfer parameters with their discrete-log table, and the ε-keyed
// aggregation plans. A simulated deployment builds it once for all its
// participants; a cluster node builds its own.
type Deployment struct {
	prog   *Program
	graph  *Graph
	setup  *trustedparty.SetupResult
	cfg    Config
	update *circuit.Circuit
	tparam transfer.Params
	table  *elgamal.Table

	// plans caches the ε-dependent half of a query: a standing deployment
	// answers queries at different budgets, each with its own noise spec
	// and aggregation circuit.
	planMu sync.Mutex
	plans  map[float64]*aggPlan
}

// NewDeployment compiles the update circuit and builds the ElGamal lookup
// table for one deployment. cfg supplies the group, K, Alpha, NoiseShift,
// TablePFail and AggFanIn; setup must already be verified.
func NewDeployment(cfg Config, prog *Program, g *Graph, setup *trustedparty.SetupResult) (*Deployment, error) {
	cfg.defaults()
	d := &Deployment{prog: prog, graph: g, setup: setup, cfg: cfg, plans: make(map[float64]*aggPlan)}
	var err error
	if d.update, err = prog.UpdateCircuit(g.D); err != nil {
		return nil, err
	}
	d.tparam = transfer.Params{Group: cfg.Group, K: cfg.K, L: prog.MsgBits, Alpha: cfg.Alpha}
	if err := d.tparam.Validate(); err != nil {
		return nil, err
	}
	d.table = d.tparam.MakeTable(cfg.TablePFail)
	return d, nil
}

// aggPlan bundles the ε-dependent half of a query: the noise spec and the
// flat-aggregation circuit (tree roots compile per query). The circuit is
// compiled on first use by aggCircuit: only the k+1 aggregation-block
// members evaluate it, so the other nodes never pay for it.
type aggPlan struct {
	noise NoiseSpec

	once sync.Once
	circ *circuit.Circuit
	err  error
}

// planFor returns (creating and caching on first use) the aggregation plan
// for the given privacy budget. Safe for overlapping queries.
func (d *Deployment) planFor(epsilon float64) *aggPlan {
	d.planMu.Lock()
	defer d.planMu.Unlock()
	if pl, ok := d.plans[epsilon]; ok {
		return pl
	}
	pl := &aggPlan{}
	if epsilon > 0 {
		pl.noise = DefaultNoiseSpec(epsilon, d.prog.Sensitivity, d.cfg.NoiseShift)
	}
	d.plans[epsilon] = pl
	return pl
}

// aggCircuit returns the plan's flat-aggregation circuit, compiling it on
// the first call; the compile shows as an "init/agg_circuit" span.
func (d *Deployment) aggCircuit(ctx context.Context, pl *aggPlan) (*circuit.Circuit, error) {
	pl.once.Do(func() {
		t0 := time.Now()
		pl.circ, pl.err = d.prog.AggregateCircuit(d.graph.N(), pl.noise)
		obs.From(ctx).SpanDur("init/agg_circuit", t0, time.Since(t0))
	})
	return pl.circ, pl.err
}

// Chaos is the deterministic fault-injection hook: the first time any
// first-attempt run on the participant finishes the compute step of
// iteration Barrier, Kill is invoked and the run blocks until its context
// dies. Kill is the failure mode — cancel the node's context for an
// in-process crash, exit the process to mimic kill -9, or tell the
// simulated fleet a node died. Firing at a barrier (not after a sleep)
// makes the kill reproducible regardless of host speed.
type Chaos struct {
	Barrier int
	Kill    func()
}

// ParticipantConfig is what distinguishes one node of a deployment.
type ParticipantConfig struct {
	ID network.NodeID
	// Transport must also keep per-tag-prefix counters
	// (network.TagTracker), as the hub Endpoint and tcpnet.Peer do: a
	// node's per-query traffic is carved out of them.
	Transport network.Transport
	Secrets   trustedparty.NodeSecrets
	// OT provisions the node's GMW sessions: gmw.SubstrateOT with the
	// node's pairwise substrate, or gmw.DealerOT with the deployment's
	// dealer broker (in-process deployments only).
	OT gmw.OTOption
	// Recover turns on phase-barrier checkpointing: every barrier's share
	// registers are archived locally and shipped, sealed under the fleet
	// recovery key, through Ship.
	Recover bool
	Ship    func(Checkpoint)
	Chaos   *Chaos
}

// Participant plays every role one node has in a deployment — block
// member, owner, relay, adjuster, receiver, aggregation member — against a
// network.Transport. Both backends run it: the simulation runs one per
// node on the in-process hub, a cluster node runs one on its TCP peer.
// Queries may overlap: each Run keeps its share registers and GMW
// sessions in its own per-query state, under its own "q/<seq>" tags.
type Participant struct {
	d       *Deployment
	id      network.NodeID
	tr      network.Transport
	tags    network.TagTracker // the transport's per-tag-prefix counters
	secrets trustedparty.NodeSecrets
	ot      gmw.OTOption
	ship    func(Checkpoint)

	recoverOn  bool
	chaos      *Chaos
	chaosFired atomic.Bool

	// setupMu guards the one-time setup accounting: the first query to
	// start claims setup and charges the pairwise OT handshakes ("otsub"
	// bytes, session creation time) to its Init phase, unless the
	// deployment already paid them (SetupPaid).
	setupMu   sync.Mutex
	setupDone bool
	setupTime time.Duration
	// certUses accumulates certificate-key uses across queries so the
	// fixed-base tables amortize even when single queries are short.
	certMu   sync.Mutex
	certUses int

	// The node's view of the assignment. setup, certCache, the membership
	// fields and the adopted-vertex state are rewritten only by
	// ApplyRecover, which runs while no Run is in flight, so a run never
	// observes a half-applied re-blocking.
	setup *trustedparty.SetupResult
	// certCache holds fixed-base tables for the certificate keys this node
	// encrypts under; Run enables it once the uses amortize the builds.
	certCache *transfer.CertKeyCache
	// memberVertices lists the vertices whose block contains this node,
	// ascending; memberIdx is this node's index in each such block, and
	// aggIdx its index in the aggregation block (−1 if not a member).
	memberVertices []int
	memberIdx      map[int]int
	aggIdx         int
	// adoptedNK / adoptedIn hold, per adopted vertex, the dead
	// registrant's neighbor keys (the re-issued certificates were
	// randomized under them) and the owner inputs the replacement runs
	// with. recChanged lists the vertices whose block changed in the
	// latest re-blocking; resumed runs re-randomize exactly these.
	adoptedNK  map[int][]*big.Int
	adoptedIn  map[int]OwnerInput
	recChanged []int

	// archMu guards the per-query archives: this node's barrier snapshots,
	// kept past completion (capped) because a recovery may resume a query
	// this node already finished.
	archMu    sync.Mutex
	archives  map[int]*queryArchive
	archOrder []int
}

// NewParticipant attaches node c.ID to the deployment.
func NewParticipant(d *Deployment, c ParticipantConfig) (*Participant, error) {
	p := &Participant{
		d: d, id: c.ID, tr: c.Transport, secrets: c.Secrets, ot: c.OT, ship: c.Ship,
		recoverOn: c.Recover, chaos: c.Chaos,
		archives:  make(map[int]*queryArchive),
		adoptedNK: make(map[int][]*big.Int),
		adoptedIn: make(map[int]OwnerInput),
	}
	var ok bool
	if p.tags, ok = c.Transport.(network.TagTracker); !ok {
		return nil, fmt.Errorf("vertex: node %d's transport keeps no per-tag traffic counters", c.ID)
	}
	if err := p.adopt(d.setup); err != nil {
		return nil, err
	}
	own := int(c.ID) - 1
	if own < 0 || own >= d.graph.N() {
		return nil, fmt.Errorf("vertex: node %d has no vertex in an %d-vertex graph", c.ID, d.graph.N())
	}
	if mi, ok := p.memberIdx[own]; !ok || mi != 0 {
		return nil, fmt.Errorf("vertex: node %d is not the first member of its own block", c.ID)
	}
	return p, nil
}

// adopt installs an assignment as this node's view: memberships, the
// aggregation-block index, and a fresh certificate cache (certificates may
// have been re-issued).
func (p *Participant) adopt(setup *trustedparty.SetupResult) error {
	g := p.d.graph
	memberIdx := make(map[int]int)
	var memberVertices []int
	for v := 0; v < g.N(); v++ {
		members := setup.Assignment.Blocks[g.NodeOf(v)]
		if len(members) != p.d.cfg.K+1 {
			return fmt.Errorf("vertex: block of vertex %d has %d members, want %d", v, len(members), p.d.cfg.K+1)
		}
		if mi := slices.Index(members, p.id); mi >= 0 {
			memberIdx[v] = mi
			memberVertices = append(memberVertices, v)
		}
	}
	sort.Ints(memberVertices)
	p.setup = setup
	p.memberIdx = memberIdx
	p.memberVertices = memberVertices
	p.aggIdx = slices.Index(setup.Assignment.AggBlock, p.id)
	p.certCache = transfer.NewCertKeyCache()
	p.certMu.Lock()
	if p.d.tparam.PrecomputeWorthwhile(p.certUses) {
		p.certCache.Enable()
	}
	p.certMu.Unlock()
	return nil
}

// Handshakes returns the node's cumulative pairwise base-OT handshake
// count (0 under dealer OT).
func (p *Participant) Handshakes() int64 {
	if s, ok := p.ot.(gmw.SubstrateOT); ok {
		return s.Sub.Handshakes()
	}
	return 0
}

// SetupPaid records that the deployment paid its one-time setup — the
// pairwise base-OT handshakes — before the first query, taking d. Queries
// then report d as SetupTime and none of them is charged the handshakes.
func (p *Participant) SetupPaid(d time.Duration) {
	p.setupMu.Lock()
	p.setupDone, p.setupTime = true, d
	p.setupMu.Unlock()
}

// OwnerInput is one vertex's owner-supplied input for a query.
type OwnerInput struct {
	InitState int64
	Priv      []uint8
}

// RunRequest is one run of one query on one node.
type RunRequest struct {
	// Seq is the query id: every tag of the run lives under "q/<Seq>".
	Seq int
	// Attempt is 1 for a fresh query and counts up per re-blocking; an
	// attempt > 1 runs under "q/<Seq>/a/<Attempt>".
	Attempt int
	// FromBarrier is the barrier a resumed attempt restores (−1 runs from
	// initialization).
	FromBarrier int
	Iterations  int
	Epsilon     float64
	// Inputs holds the owner inputs of the vertices this node acts as
	// owner of; adopted vertices fall back to the inputs handed over at
	// recovery.
	Inputs map[int]OwnerInput
	// RecKey is the fleet recovery key sealing checkpoints (recovery only).
	RecKey []byte
}

// NodeResult is what one node learns from a run.
type NodeResult struct {
	// Result is the opened noised aggregate; only aggregation-block members
	// have it (HasResult).
	Result    int64
	HasResult bool
	Report    Report
	// Stats is the node's own traffic under the query's namespace.
	Stats network.Stats
}

// nodeRun is one query's protocol state on one node: its GMW sessions (all
// tagged under the query's namespace) and this node's XOR share registers.
type nodeRun struct {
	root string // "q/<seq>", the tag namespace of this query
	// proto is the namespace protocol traffic uses: root on the first
	// attempt, root/a/<attempt> after a re-blocking, so a resumed run's
	// streams can never collide with a superseded attempt's strays.
	proto  string
	seq    int
	inits  map[int]int64
	privs  map[int][]uint8
	recKey []byte

	sessions map[int]*gmw.Party
	aggParty *gmw.Party

	// stateShare[v] / msgShare[v][slot] are this node's XOR shares for the
	// vertices it is a block member of.
	stateShare map[int]uint64
	msgShare   map[int][]uint64
}

// Run executes one query's full schedule on this node. Its whole wire
// footprint lives under the query's "q/<seq>" namespace, so overlapping
// runs on one transport cannot collide. With recovery on, every phase
// barrier is checkpointed, and a resumed attempt (FromBarrier ≥ 0)
// restores its registers instead of redistributing initial shares.
func (p *Participant) Run(ctx context.Context, req RunRequest) (*NodeResult, error) {
	iterations := req.Iterations
	if iterations < 0 {
		return nil, fmt.Errorf("vertex: negative iteration count %d", iterations)
	}
	attempt := req.Attempt
	plan := p.d.planFor(req.Epsilon)
	run := &nodeRun{
		root:       network.Tag("q", req.Seq),
		seq:        req.Seq,
		inits:      make(map[int]int64),
		privs:      make(map[int][]uint8),
		recKey:     req.RecKey,
		sessions:   make(map[int]*gmw.Party),
		stateShare: make(map[int]uint64),
		msgShare:   make(map[int][]uint64),
	}
	run.proto = run.root
	if attempt > 1 {
		run.proto = network.Tag(run.root, "a", attempt)
	}
	// Owner inputs live on the run, never on the shared graph: queries may
	// follow updated books, and overlapping queries must each see their own.
	for v, in := range p.adoptedIn {
		run.inits[v], run.privs[v] = in.InitState, in.Priv
	}
	for v, in := range req.Inputs {
		run.inits[v], run.privs[v] = in.InitState, in.Priv
	}
	for _, v := range p.memberVertices {
		if p.memberIdx[v] != 0 {
			continue
		}
		priv, ok := run.privs[v]
		if !ok {
			return nil, fmt.Errorf("vertex: node %d acts as owner of vertex %d but has no inputs for it", p.id, v)
		}
		if want := p.d.prog.PrivBits(p.d.graph.D); len(priv) != want {
			return nil, fmt.Errorf("vertex: node %d got %d private input bits for vertex %d, program wants %d",
				p.id, len(priv), v, want)
		}
	}
	if p.recoverOn {
		if len(req.RecKey) == 0 {
			return nil, fmt.Errorf("vertex: node %d runs with recovery but has no recovery key", p.id)
		}
		p.archiveQuery(req.Seq)
	}

	rep := &Report{Iterations: iterations, UpdateAndGates: p.d.update.NumAnd}
	// Recovery rewrites aggIdx only between runs, so a replacement adopted
	// into the aggregation block compiles here on its resumed attempt.
	if p.aggIdx >= 0 {
		circ, err := p.d.aggCircuit(ctx, plan)
		if err != nil {
			return nil, err
		}
		rep.AggAndGates = circ.NumAnd
	}
	// A node is a single sender, so each certificate key it caches is used
	// once per iteration; uses accumulate across the session's queries.
	p.certMu.Lock()
	p.certUses += iterations
	if p.d.tparam.PrecomputeWorthwhile(p.certUses) {
		p.certCache.Enable()
	}
	p.certMu.Unlock()
	// The first query to arrive claims setup: its Init phase owns the
	// pairwise OT handshakes (and the "otsub" bytes). Overlapping queries
	// racing through createSessions still handshake each pair exactly
	// once — the substrate serializes per pair — but accounting needs a
	// single owner.
	p.setupMu.Lock()
	paysSetup := !p.setupDone
	p.setupDone = true
	p.setupMu.Unlock()

	phaseStart := func() (time.Time, int64) {
		s := p.queryStats(run.root, paysSetup)
		return time.Now(), s.BytesSent + s.BytesReceived
	}
	phaseBytes := func(b0 int64) int64 {
		s := p.queryStats(run.root, paysSetup)
		return s.BytesSent + s.BytesReceived - b0
	}
	trace := obs.From(ctx)

	// Phases open a live span (Begin) and announce themselves to the
	// progress callback before doing any work: a phase that hangs or dies
	// is visible in heartbeat snapshots and in the failure report, not only
	// after it completes. On an error return the open span is deliberately
	// left unclosed — it marks where the protocol stopped.

	// --- Initialization: session joins + owner share distribution. Init
	// counts from the query's first byte, not from this node's start:
	// traffic peers sent before this run began (and, on a resumed attempt,
	// the superseded attempts' traffic) lands here, so a node's phases add
	// up to its whole traffic for the query on either transport. ---
	t0, b0 := time.Now(), int64(0)
	obs.ReportProgress(ctx, "phase/init")
	endPhase := trace.Begin("phase/init")
	if err := p.createSessions(ctx, run); err != nil {
		return nil, err
	}
	if paysSetup {
		p.setupMu.Lock()
		p.setupTime = time.Since(t0)
		p.setupMu.Unlock()
		trace.SpanDur("init/sessions", t0, time.Since(t0))
	}
	resume := req.FromBarrier >= 0
	if resume {
		rep.ReplayedBarriers = p.replayedFrom(req.Seq, req.FromBarrier)
		if err := p.restoreRun(ctx, run, attempt, req.FromBarrier); err != nil {
			return nil, err
		}
	} else {
		if err := p.initShares(ctx, run); err != nil {
			return nil, err
		}
		p.checkpointBarrier(run, attempt, 0)
	}
	rep.InitTime = time.Since(t0)
	rep.InitBytes = phaseBytes(b0)
	p.setupMu.Lock()
	rep.SetupTime = p.setupTime
	p.setupMu.Unlock()
	rep.BaseOTHandshakes = p.Handshakes()
	endPhase()

	// --- Iterations. Barrier b is the start of iteration b, so a resumed
	// run re-enters at its barrier and replays that iteration's compute. ---
	startIter := 0
	if resume {
		startIter = req.FromBarrier
	}
	for it := startIter; it <= iterations; it++ {
		t0, b0 = phaseStart()
		obs.ReportProgress(ctx, fmt.Sprintf("iter/%d/compute", it))
		endPhase = trace.Begin(fmt.Sprintf("iter/%d/compute", it))
		out, err := p.computeStep(ctx, run, it)
		if err != nil {
			return nil, fmt.Errorf("vertex: node %d iteration %d compute: %w", p.id, it, err)
		}
		endPhase()
		rep.ComputeTime += time.Since(t0)
		rep.ComputeBytes += phaseBytes(b0)

		if p.chaos != nil && attempt == 1 && it == p.chaos.Barrier && p.chaosFired.CompareAndSwap(false, true) {
			p.chaos.Kill()
			<-ctx.Done()
			return nil, ctx.Err()
		}
		if it == iterations {
			break // final computation step: no communication follows
		}
		t0, b0 = phaseStart()
		obs.ReportProgress(ctx, fmt.Sprintf("iter/%d/communicate", it))
		endPhase = trace.Begin(fmt.Sprintf("iter/%d/communicate", it))
		if err := p.communicateStep(ctx, run, it, out); err != nil {
			return nil, fmt.Errorf("vertex: node %d iteration %d communicate: %w", p.id, it, err)
		}
		endPhase()
		rep.CommTime += time.Since(t0)
		rep.CommBytes += phaseBytes(b0)
		p.checkpointBarrier(run, attempt, it+1)
	}

	// --- Aggregation + noising (§3.6). ---
	t0, b0 = phaseStart()
	obs.ReportProgress(ctx, "phase/agg")
	endPhase = trace.Begin("phase/agg")
	result, hasResult, err := p.aggregate(ctx, run, plan)
	if err != nil {
		return nil, fmt.Errorf("vertex: node %d aggregation: %w", p.id, err)
	}
	endPhase()
	rep.AggTime = time.Since(t0)
	rep.AggBytes = phaseBytes(b0)

	// Per-query accounting, then retirement: snapshot this query's traffic
	// and fold its per-prefix counters into the trace, then drop its tag
	// namespace from a transport that can retire one, so a standing node's
	// counters and mailboxes do not grow with every query served.
	res := &NodeResult{Result: result, HasResult: hasResult, Report: *rep, Stats: p.queryStats(run.root, paysSetup)}
	if trace != nil {
		for prefix, ts := range p.tags.TagStats() {
			if !p.countsToward(prefix, run.root, paysSetup) {
				continue
			}
			trace.Add("net/"+prefix+"/bytes_sent", ts.BytesSent)
			trace.Add("net/"+prefix+"/bytes_recv", ts.BytesReceived)
			trace.Add("net/"+prefix+"/msgs_sent", ts.MessagesSent)
		}
	}
	if rt, ok := p.tr.(network.TagRetirer); ok {
		rt.RetireTagPrefix(run.root)
	}
	return res, nil
}

// countsToward reports whether traffic under tag prefix belongs to the
// query rooted at root ("q/<seq>"): the root itself or any tag below it,
// plus the pairwise substrate handshakes ("otsub") when the query pays
// the deployment's setup.
func (p *Participant) countsToward(prefix, root string, withSetup bool) bool {
	if withSetup && prefix == "otsub" {
		return true
	}
	return prefix == root || (len(prefix) > len(root) && prefix[:len(root)] == root && prefix[len(root)] == '/')
}

// queryStats carves one query's traffic out of the transport's shared
// counters by its tag namespace.
func (p *Participant) queryStats(root string, withSetup bool) network.Stats {
	var s network.Stats
	for prefix, ts := range p.tags.TagStats() {
		if p.countsToward(prefix, root, withSetup) {
			s.BytesSent += ts.BytesSent
			s.BytesReceived += ts.BytesReceived
			s.MessagesSent += ts.MessagesSent
		}
	}
	return s
}

// ownerOf returns the acting owner of vertex v: the first member of v's
// block. That is the registered owner g.NodeOf(v) until a re-blocking
// hands the slot to a replacement. Relay and adjuster roles follow the
// acting owner.
func (p *Participant) ownerOf(v int) network.NodeID {
	return p.setup.Assignment.Blocks[p.d.graph.NodeOf(v)][0]
}

// createSessions joins every GMW session this node is a member of, tagged
// under the run's namespace. All sessions are joined concurrently and
// unboundedly: a join blocks until every member arrives, and nodes
// discover their sessions in different orders, so any bounded schedule
// could deadlock across nodes.
func (p *Participant) createSessions(ctx context.Context, run *nodeRun) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	join := func(members []network.NodeID, mi int, tag string, store func(*gmw.Party)) {
		defer wg.Done()
		party, err := gmw.NewParty(ctx, gmw.Config{
			Parties: members, Index: mi, Transport: p.tr, Tag: tag, OT: p.ot,
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vertex: session %s: %w", tag, err)
		}
		store(party)
	}
	for _, v := range p.memberVertices {
		v := v
		wg.Add(1)
		go join(p.setup.Assignment.Blocks[p.d.graph.NodeOf(v)], p.memberIdx[v], network.Tag(run.proto, "blk", v),
			func(party *gmw.Party) { run.sessions[v] = party })
	}
	if p.aggIdx >= 0 {
		wg.Add(1)
		go join(p.setup.Assignment.AggBlock, p.aggIdx, network.Tag(run.proto, "aggblk"),
			func(party *gmw.Party) { run.aggParty = party })
	}
	wg.Wait()
	return firstErr
}

// initShares distributes the owner-generated initial shares (§3.6): for
// every vertex this node acts as owner of it splits the state plus D
// no-op slots and ships the shares to the block; then it collects its
// shares of every other vertex it is a block member of. All sends happen
// before any receive so no pair of nodes can wait on each other.
func (p *Participant) initShares(ctx context.Context, run *nodeRun) error {
	g, prog := p.d.graph, p.d.prog
	k1 := p.d.cfg.K + 1
	for _, v := range p.memberVertices {
		if p.memberIdx[v] != 0 {
			continue
		}
		members := p.setup.Assignment.Blocks[g.NodeOf(v)]
		st := secretshare.SplitXOR(uint64(run.inits[v]), k1, prog.StateBits)
		msgs := make([][]uint64, g.D)
		for d := range msgs {
			msgs[d] = secretshare.SplitXOR(uint64(prog.NoOp), k1, prog.MsgBits)
		}
		for m := 1; m < k1; m++ {
			vals := append([]uint64{st[m]}, column(msgs, m)...)
			if err := p.tr.Send(members[m], network.Tag(run.proto, "init", v), encodeShares(vals)); err != nil {
				return err
			}
		}
		run.stateShare[v] = st[0]
		run.msgShare[v] = column(msgs, 0)
	}
	for _, v := range p.memberVertices {
		if p.memberIdx[v] == 0 {
			continue
		}
		data, err := p.tr.Recv(ctx, p.ownerOf(v), network.Tag(run.proto, "init", v))
		if err != nil {
			return err
		}
		vals, err := decodeShares(data, 1+g.D)
		if err != nil {
			return err
		}
		run.stateShare[v] = vals[0]
		run.msgShare[v] = vals[1:]
	}
	return nil
}

// memberInput assembles this node's input-share bits for vertex v's
// update: [state | priv | msgs]. Only the acting owner (member 0)
// contributes the private data; everyone else contributes zero shares.
func (p *Participant) memberInput(run *nodeRun, v int) []uint8 {
	g, prog := p.d.graph, p.d.prog
	in := circuit.EncodeWord(int64(run.stateShare[v]), prog.StateBits)
	if p.memberIdx[v] == 0 {
		in = append(in, run.privs[v]...)
	} else {
		in = append(in, make([]uint8, prog.PrivBits(g.D))...)
	}
	for d := 0; d < g.D; d++ {
		in = append(in, circuit.EncodeWord(int64(run.msgShare[v][d]), prog.MsgBits)...)
	}
	return in
}

// computeStep runs the update MPC of every block this node belongs to, all
// concurrently (each session's other members run theirs concurrently too).
// It returns this node's fresh output-message shares, [vertex][slot].
func (p *Participant) computeStep(ctx context.Context, run *nodeRun, iter int) (map[int][]uint64, error) {
	g, prog := p.d.graph, p.d.prog
	trace := obs.From(ctx)
	out := make(map[int][]uint64, len(p.memberVertices))
	// Inputs are assembled up front: memberInput reads the share maps,
	// which the evaluation goroutines mutate.
	inputs := make(map[int][]uint8, len(p.memberVertices))
	for _, v := range p.memberVertices {
		inputs[v] = p.memberInput(run, v)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, v := range p.memberVertices {
		v := v
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			outBits, err := run.sessions[v].Evaluate(ctx, p.d.update, inputs[v])
			if trace != nil && err == nil { // guard: the name formatting allocates
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
			run.stateShare[v] = circuit.DecodeWordU(outBits[:prog.StateBits])
			slots := make([]uint64, g.D)
			for d := range slots {
				lo := prog.StateBits + d*prog.MsgBits
				slots[d] = circuit.DecodeWordU(outBits[lo : lo+prog.MsgBits])
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

// communicateStep runs this node's roles in every edge transfer (§3.5):
// sender-block member, relay (acting owner of u), adjuster (acting owner
// of v), receiver-block member. All roles across all edges run
// concurrently; edges this node plays no role in cost it nothing.
func (p *Participant) communicateStep(ctx context.Context, run *nodeRun, iter int, out map[int][]uint64) error {
	g, prog := p.d.graph, p.d.prog
	// Refresh all input slots with ⊥ shares; transfers overwrite the slots
	// with real in-edges. Share 0 (the owner's) carries ⊥, the rest zero.
	for _, v := range p.memberVertices {
		for d := 0; d < g.D; d++ {
			if p.memberIdx[v] == 0 {
				run.msgShare[v][d] = uint64(prog.NoOp) & secretshare.Mask(prog.MsgBits)
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
	// ("…/tx/<iter>/<u>/<v>") with the role this node played.
	span := func(tag, role string, t0 time.Time) {
		if trace != nil {
			trace.Span(tag+"/"+role, t0)
		}
	}
	for _, edge := range g.Edges() {
		u, v := edge[0], edge[1]
		slotIn, err := g.InSlot(u, v)
		if err != nil {
			return err
		}
		relayID, adjustID := p.ownerOf(u), p.ownerOf(v)
		tag := network.Tag(run.proto, "tx", iter, u, v)
		sendersB := p.setup.Assignment.Blocks[g.NodeOf(u)]
		recvB := p.setup.Assignment.Blocks[g.NodeOf(v)]

		if _, ok := p.memberIdx[u]; ok {
			share := out[u][outSlot(g, u, v)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				// Key lookup (and a possible first-iteration table build)
				// runs here so builds for different edges overlap.
				keys := p.recipientKeys(v, slotIn)
				record(u, v, transfer.SendShare(ctx, p.d.tparam, p.tr, relayID, tag, share, keys))
				span(tag, "send", t0)
			}()
		}
		if p.id == relayID {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				record(u, v, transfer.RunRelay(ctx, p.d.tparam, p.tr, sendersB, adjustID, tag, dp.CryptoSource{}))
				span(tag, "relay", t0)
			}()
		}
		if p.id == adjustID {
			nk, err := p.neighborKey(v, slotIn)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				record(u, v, transfer.RunAdjust(ctx, p.d.tparam, p.tr, relayID, recvB, nk, tag))
				span(tag, "adjust", t0)
			}()
		}
		if _, ok := p.memberIdx[v]; ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				share, err := transfer.ReceiveShare(ctx, p.d.tparam, p.tr, adjustID, tag, p.secrets.PrivateKeys, p.d.table)
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

// recipientKeys returns the certificate keys for edge slot (v, slotIn):
// B_v's keys re-randomized with the slotIn-th neighbor key of v's
// registrant, with fixed-base tables once the uses amortize them.
func (p *Participant) recipientKeys(v, slotIn int) transfer.RecipientKeys {
	cert := p.setup.Certs[p.d.graph.NodeOf(v)][slotIn]
	return p.certCache.Keys(v, slotIn, transfer.RecipientKeys(cert.Keys))
}

// neighborKey returns the key the adjuster role uses for edge slot
// (v, slot): this node's own registered key for its own vertex, the dead
// registrant's key for an adopted one — the trusted party re-issued the
// changed certificates under the original registrant's neighbor keys.
func (p *Participant) neighborKey(v, slot int) (*big.Int, error) {
	if int(p.id)-1 == v {
		return p.secrets.NeighborKeys[slot], nil
	}
	nks := p.adoptedNK[v]
	if slot >= len(nks) {
		return nil, fmt.Errorf("vertex: node %d has no neighbor key for adopted vertex %d slot %d", p.id, v, slot)
	}
	return nks[slot], nil
}

// reshareSend splits this node's share of a bits-wide word into one
// subshare per destination member and ships them under tag/<myIdx>. Block
// memberships are public (§3.4), so a reshare needs only point-to-point
// channels — the identity-hiding transfer is required only on graph edges.
func (p *Participant) reshareSend(share uint64, bits, myIdx int, dst []network.NodeID, tag string) error {
	subs := secretshare.SplitXOR(share, len(dst), bits)
	for y, dest := range dst {
		if err := p.tr.Send(dest, network.Tag(tag, myIdx), encodeShares(subs[y:y+1])); err != nil {
			return err
		}
	}
	return nil
}

// reshareRecv collects one subshare from every source member and XORs them
// into this destination member's fresh share.
func (p *Participant) reshareRecv(ctx context.Context, src []network.NodeID, tag string) (uint64, error) {
	var fresh uint64
	for m, id := range src {
		data, err := p.tr.Recv(ctx, id, network.Tag(tag, m))
		if err != nil {
			return 0, err
		}
		vals, err := decodeShares(data, 1)
		if err != nil {
			return 0, err
		}
		fresh ^= vals[0]
	}
	return fresh, nil
}

// aggregate re-shares vertex states into the aggregation machinery (flat
// or tree-shaped, §3.6), runs the aggregation MPC with in-MPC noise, and —
// on aggregation-block members — opens only the noised result.
func (p *Participant) aggregate(ctx context.Context, run *nodeRun, plan *aggPlan) (int64, bool, error) {
	if p.d.cfg.AggFanIn > 0 && p.d.graph.N() > p.d.cfg.AggFanIn {
		return p.aggregateTree(ctx, run, plan)
	}
	g, prog := p.d.graph, p.d.prog
	aggMembers := p.setup.Assignment.AggBlock
	for _, v := range p.memberVertices {
		if err := p.reshareSend(run.stateShare[v], prog.StateBits, p.memberIdx[v], aggMembers, network.Tag(run.proto, "aggsh", v)); err != nil {
			return 0, false, err
		}
	}
	if p.aggIdx < 0 {
		return 0, false, nil
	}
	var input []uint8
	for v := 0; v < g.N(); v++ {
		col, err := p.reshareRecv(ctx, p.setup.Assignment.Blocks[g.NodeOf(v)], network.Tag(run.proto, "aggsh", v))
		if err != nil {
			return 0, false, err
		}
		input = append(input, circuit.EncodeWord(int64(col), prog.StateBits)...)
	}
	circ, err := p.d.aggCircuit(ctx, plan)
	if err != nil {
		return 0, false, err
	}
	return p.evalAndOpen(ctx, run, circ, plan, input)
}

// evalAndOpen appends this member's noise bits to its aggregation input,
// evaluates circ in the aggregation session and opens the result. Each
// member contributes its own uniform bits; the circuit sees their XOR, so
// one honest member suffices for uniformity.
func (p *Participant) evalAndOpen(ctx context.Context, run *nodeRun, circ *circuit.Circuit, plan *aggPlan, input []uint8) (int64, bool, error) {
	noiseBits, err := RandomInputBits(plan.noise.RandBits())
	if err != nil {
		return 0, false, err
	}
	outShares, err := run.aggParty.Evaluate(ctx, circ, append(input, noiseBits...))
	if err != nil {
		return 0, false, err
	}
	open, err := run.aggParty.Open(ctx, outShares)
	if err != nil {
		return 0, false, err
	}
	return circuit.DecodeWordS(open), true, nil
}

// aggregateTree is the two-level aggregation tree of §3.6: each group of
// up to AggFanIn vertices is partially aggregated by the block of the
// group's first vertex, and the aggregation block combines the partials
// and draws the noise.
func (p *Participant) aggregateTree(ctx context.Context, run *nodeRun, plan *aggPlan) (int64, bool, error) {
	g, prog := p.d.graph, p.d.prog
	fanIn := p.d.cfg.AggFanIn
	nGroups := (g.N() + fanIn - 1) / fanIn
	aggMembers := p.setup.Assignment.AggBlock
	groupRange := func(grp int) (int, int) {
		lo := grp * fanIn
		return lo, min(lo+fanIn, g.N())
	}
	trace := obs.From(ctx)

	// Phase A: every member ships its state subshares to its group's leaf
	// block. All sends complete before any leaf evaluation blocks.
	for grp := 0; grp < nGroups; grp++ {
		lo, hi := groupRange(grp)
		leafMembers := p.setup.Assignment.Blocks[g.NodeOf(lo)]
		for v := lo; v < hi; v++ {
			mi, ok := p.memberIdx[v]
			if !ok {
				continue
			}
			if err := p.reshareSend(run.stateShare[v], prog.StateBits, mi, leafMembers, network.Tag(run.proto, "leafsh", grp, v)); err != nil {
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
	leaf := func(grp, lo, hi int) error {
		t0 := time.Now()
		partialCirc, err := prog.PartialAggregateCircuit(hi - lo)
		if err != nil {
			return err
		}
		var input []uint8
		for v := lo; v < hi; v++ {
			col, err := p.reshareRecv(ctx, p.setup.Assignment.Blocks[g.NodeOf(v)], network.Tag(run.proto, "leafsh", grp, v))
			if err != nil {
				return err
			}
			input = append(input, circuit.EncodeWord(int64(col), prog.StateBits)...)
		}
		outShares, err := run.sessions[lo].Evaluate(ctx, partialCirc, input)
		if err != nil {
			return err
		}
		if trace != nil {
			trace.Span(fmt.Sprintf("agg/leaf/%d", grp), t0)
		}
		mu.Lock()
		partial[grp] = circuit.DecodeWordU(outShares)
		mu.Unlock()
		return nil
	}
	for grp := 0; grp < nGroups; grp++ {
		lo, hi := groupRange(grp)
		if _, ok := p.memberIdx[lo]; !ok {
			continue
		}
		grp := grp
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := leaf(grp, lo, hi); err != nil {
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
		mi, ok := p.memberIdx[lo]
		if !ok {
			continue
		}
		if err := p.reshareSend(partial[grp], prog.AggBits, mi, aggMembers, network.Tag(run.proto, "rootsh", grp)); err != nil {
			return 0, false, err
		}
	}

	// Phase D: root combine + noise + open, by aggregation-block members.
	if p.aggIdx < 0 {
		return 0, false, nil
	}
	rootT0 := time.Now()
	defer trace.Span("agg/root", rootT0)
	combineCirc, err := prog.CombineCircuit(nGroups, plan.noise)
	if err != nil {
		return 0, false, err
	}
	var input []uint8
	for grp := 0; grp < nGroups; grp++ {
		lo, _ := groupRange(grp)
		col, err := p.reshareRecv(ctx, p.setup.Assignment.Blocks[g.NodeOf(lo)], network.Tag(run.proto, "rootsh", grp))
		if err != nil {
			return 0, false, err
		}
		input = append(input, circuit.EncodeWord(int64(col), prog.AggBits)...)
	}
	result, ok, err := p.evalAndOpen(ctx, run, combineCirc, plan, input)
	if err != nil {
		return 0, false, fmt.Errorf("root aggregation: %w", err)
	}
	return result, ok, nil
}

// outSlot returns the slot of edge u → v on the sending side, or -1.
func outSlot(g *Graph, u, v int) int {
	for d, w := range g.Out[u] {
		if w == v {
			return d
		}
	}
	return -1
}

// column extracts entry m of every row.
func column(rows [][]uint64, m int) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = r[m]
	}
	return out
}

// encodeShares serializes share words as little-endian uint64s: the
// payload of every share message.
func encodeShares(vals []uint64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out
}

// decodeShares parses exactly n little-endian uint64 share words.
func decodeShares(data []byte, n int) ([]uint64, error) {
	if len(data) != 8*n {
		return nil, fmt.Errorf("vertex: share payload has %d bytes, want %d", len(data), 8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return out, nil
}

// RandomInputBits draws n uniform unpacked bits from crypto/rand.
func RandomInputBits(n int) ([]uint8, error) {
	if n == 0 {
		return nil, nil
	}
	buf := make([]byte, (n+7)/8)
	if _, err := crand.Read(buf); err != nil {
		return nil, fmt.Errorf("vertex: reading entropy: %w", err)
	}
	return ot.UnpackBits(buf, n), nil
}
