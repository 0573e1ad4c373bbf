package vertex

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
	"dstress/internal/trustedparty"
)

// OTMode selects the GMW oblivious-transfer provisioning.
type OTMode int

const (
	// OTDealer uses trusted-party-dealt correlated randomness (offline
	// phase); the online traffic is unchanged. Default for large runs.
	OTDealer OTMode = iota
	// OTIKNP runs real DH base OTs plus IKNP extension — the paper-faithful
	// configuration.
	OTIKNP
)

// Config parameterizes a DStress deployment.
type Config struct {
	// Group is the cyclic group for ElGamal and base OTs.
	Group group.Group
	// K is the collusion bound; blocks have K+1 members (§3.2).
	K int
	// Alpha is the transfer-noise parameter (§3.5); 0 disables edge noising.
	Alpha float64
	// Epsilon is the output-privacy budget for this query; 0 disables the
	// final Laplace noise (used by correctness tests only — a real
	// deployment always noises, §3.6).
	Epsilon float64
	// NoiseShift samples output noise at a granularity of 2^NoiseShift raw
	// LSBs (set to the program's fractional bits).
	NoiseShift int
	// OTMode selects dealer vs IKNP OT provisioning.
	OTMode OTMode
	// TablePFail is the per-decryption failure budget used to size the
	// ElGamal lookup table (Appendix B); 0 means 1e-12.
	TablePFail float64
	// AggFanIn enables hierarchical aggregation (§3.6): when positive and
	// smaller than N, vertices are grouped into subtrees of at most
	// AggFanIn states, each partially aggregated by an existing block,
	// and a root block combines the partials and adds the noise. 0 keeps
	// the single aggregation block. The paper suggests a fan-in of 100.
	AggFanIn int
	// Recover enables phase-barrier checkpointing: at every barrier each
	// participant archives its share registers and seals them into an
	// encrypted snapshot blob, paying the per-barrier cost a cluster node
	// pays to ship one. Off by default — a failed run then surfaces as an
	// error, matching the fail-stop behavior tests pin.
	Recover bool
	// Chaos deterministically injects a node death mid-iteration (after the
	// compute step of iteration Barrier, before its communicate) and drives
	// the recovery path: re-block around the victim, restore the last
	// barrier snapshot, re-share, and replay. Test/bench only: a chaos
	// recovery mutates the deployment's assignment, so no other query may
	// be in flight on the runtime when it fires.
	Chaos *ChaosSpec
}

// ChaosSpec names the deterministic fault injection: Victim dies during
// iteration Barrier of the first query attempt.
type ChaosSpec struct {
	Victim  network.NodeID
	Barrier int
}

func (c *Config) defaults() {
	if c.TablePFail == 0 {
		c.TablePFail = 1e-12
	}
}

// Runtime simulates a deployment in one process: an in-process trusted
// party sets it up, and one Participant per node plays that node's roles
// on its own endpoint of a shared hub, whose counters provide the traffic
// measurements. The participants share the deployment's immutable
// artifacts (verified setup, update circuit, aggregation plans, ElGamal
// table), so the simulation pays each build once, not once per node.
type Runtime struct {
	cfg   Config
	graph *Graph
	net   *network.Network
	dep   *Deployment

	// tp and regs are retained from setup so a recovery can re-block
	// around a dead node exactly as the cluster coordinator does. recKey
	// is the fleet recovery key sealing checkpoint blobs.
	tp     *trustedparty.TrustedParty
	regs   []trustedparty.NodeRegistration
	recKey []byte
	// broker is the deployment-wide dealer broker (OTDealer): every GMW
	// session draws its own tag-derived stream from it.
	broker *ot.DealerBroker
	// setupTime is the one-time deployment bootstrap cost measured in New.
	setupTime time.Duration
	// qid hands out query ids for callers that don't bring their own
	// (Run/RunQuery); the session facade assigns ids itself via RunQueryID.
	qid atomic.Int64
	// deaths carries the chaos victim's death notice to the attempt that
	// is running the query.
	deaths chan network.NodeID

	// mu guards what a recovery rewrites: the assignment, the live
	// participants, and the shipped checkpoints (seq → node → barrier →
	// sealed blob).
	mu    sync.Mutex
	setup *trustedparty.SetupResult
	parts map[network.NodeID]*Participant
	ckpts map[int]map[network.NodeID]map[int][]byte
}

// New builds a runtime: trusted-party setup, circuit compilation, one
// participant per node, and the pairwise base-OT warm-up. ctx bounds the
// bootstrap (the warm-up blocks on in-process peers).
func New(ctx context.Context, cfg Config, prog *Program, g *Graph) (*Runtime, error) {
	cfg.defaults()
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	if cfg.Group == nil {
		return nil, fmt.Errorf("vertex: config needs a group")
	}
	if g.N() < cfg.K+1 {
		return nil, fmt.Errorf("vertex: need at least K+1 = %d vertices, got %d", cfg.K+1, g.N())
	}

	setupStart := time.Now()
	r := &Runtime{
		cfg: cfg, graph: g, net: network.New(),
		deaths: make(chan network.NodeID, 1),
		parts:  make(map[network.NodeID]*Participant, g.N()),
		ckpts:  make(map[int]map[network.NodeID]map[int][]byte),
	}
	// Trusted-party setup (§3.4).
	tpParams := trustedparty.Params{Group: cfg.Group, K: cfg.K, D: g.D, L: prog.MsgBits, Recoverable: cfg.Recover}
	tp, err := trustedparty.New(tpParams)
	if err != nil {
		return nil, err
	}
	regs := make([]trustedparty.NodeRegistration, g.N())
	secrets := make(map[network.NodeID]trustedparty.NodeSecrets, g.N())
	for v := range regs {
		id := g.NodeOf(v)
		reg, sec, err := trustedparty.RegisterNode(tpParams, id)
		if err != nil {
			return nil, err
		}
		regs[v], secrets[id] = reg, sec
	}
	if r.setup, err = tp.Setup(regs); err != nil {
		return nil, err
	}
	r.tp, r.regs = tp, regs
	if r.dep, err = NewDeployment(cfg, prog, g, r.setup); err != nil {
		return nil, err
	}
	// The configured budget's aggregation circuit compiles here, as part
	// of setup; other budgets compile on their first query.
	if _, err := r.dep.aggCircuit(ctx, r.dep.planFor(cfg.Epsilon)); err != nil {
		return nil, err
	}
	recoverOn := cfg.Recover || cfg.Chaos != nil
	if recoverOn {
		if r.recKey, err = NewRecoveryKey(); err != nil {
			return nil, err
		}
	}
	if cfg.OTMode == OTDealer {
		r.broker = ot.NewDealerBroker()
	}

	subs := make(map[network.NodeID]*ot.Substrate)
	for v := 0; v < g.N(); v++ {
		id := g.NodeOf(v)
		ep := r.net.Endpoint(id)
		pc := ParticipantConfig{ID: id, Transport: ep, Secrets: secrets[id], Recover: recoverOn, Ship: r.shipper(id)}
		switch cfg.OTMode {
		case OTDealer:
			pc.OT = gmw.DealerOT{Broker: r.broker}
		case OTIKNP:
			subs[id] = ot.NewSubstrate(cfg.Group, ep)
			pc.OT = gmw.SubstrateOT{Sub: subs[id]}
		default:
			return nil, fmt.Errorf("vertex: unknown OT mode %d", cfg.OTMode)
		}
		if c := cfg.Chaos; c != nil && c.Victim == id {
			pc.Chaos = &Chaos{Barrier: c.Barrier, Kill: func() {
				select {
				case r.deaths <- id:
				default:
				}
			}}
		}
		if r.parts[id], err = NewParticipant(r.dep, pc); err != nil {
			return nil, err
		}
	}
	if err := warmSubstrates(ctx, subs, r.setup.Assignment); err != nil {
		return nil, err
	}
	r.setupTime = time.Since(setupStart)
	for _, p := range r.parts {
		p.SetupPaid(r.setupTime)
	}
	return r, nil
}

// warmSubstrates pays the pairwise base-OT handshakes up front (OTIKNP):
// every unordered node pair sharing a block or the aggregation block
// handshakes once, at most GOMAXPROCS pairs at a time, so queries derive
// their sessions locally and overlapping queries never contend on a
// bootstrap. The handshake is symmetric, so both directions of a pair run
// concurrently.
func warmSubstrates(ctx context.Context, subs map[network.NodeID]*ot.Substrate, a trustedparty.Assignment) error {
	if len(subs) == 0 {
		return nil
	}
	type upair struct{ a, b network.NodeID }
	pairs := make(map[upair]bool)
	addBlock := func(members []network.NodeID) {
		for i, x := range members {
			for _, y := range members[i+1:] {
				if x != y {
					pairs[upair{min(x, y), max(x, y)}] = true
				}
			}
		}
	}
	for _, members := range a.Blocks {
		addBlock(members)
	}
	addBlock(a.AggBlock)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make(chan error, len(pairs))
	var wg sync.WaitGroup
	for pr := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			other := make(chan error, 1)
			go func() { other <- subs[pr.b].Warm(ctx, pr.a) }()
			errs <- errors.Join(subs[pr.a].Warm(ctx, pr.b), <-other)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shipper stores node id's shipped checkpoints the way the cluster
// coordinator does: by query, node and barrier, sealed.
func (r *Runtime) shipper(id network.NodeID) func(Checkpoint) {
	return func(c Checkpoint) {
		r.mu.Lock()
		defer r.mu.Unlock()
		byNode := r.ckpts[c.Seq]
		if byNode == nil {
			byNode = make(map[network.NodeID]map[int][]byte)
			r.ckpts[c.Seq] = byNode
		}
		if byNode[id] == nil {
			byNode[id] = make(map[int][]byte)
		}
		byNode[id][c.Barrier] = c.Blob
	}
}

// BaseOTHandshakes returns the deployment-wide count of pairwise base-OT
// bootstraps, summed over the live nodes: one per ordered node pair that
// shares at least one GMW session, independent of the block count.
func (r *Runtime) BaseOTHandshakes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, p := range r.parts {
		total += p.Handshakes()
	}
	return total
}

// Run executes `iterations` computation+communication steps, a final
// computation step, and the aggregation+noising step at the configured
// Epsilon, returning the opened (noised) aggregate. Canceling ctx aborts
// the run: every blocked receive returns the context's error.
func (r *Runtime) Run(ctx context.Context, iterations int) (int64, *Report, error) {
	return r.RunQuery(ctx, iterations, r.cfg.Epsilon)
}

// RunQuery executes one query against the standing deployment at the given
// privacy budget, under a fresh auto-assigned query id.
func (r *Runtime) RunQuery(ctx context.Context, iterations int, epsilon float64) (int64, *Report, error) {
	return r.RunQueryID(ctx, int(r.qid.Add(1)), iterations, epsilon)
}

// RunQueryID executes one query against the standing deployment at the
// given privacy budget, with all of its protocol traffic namespaced under
// the "q/<qid>" tag root: every live participant runs it concurrently, and
// their per-node reports fold (FoldReports) into the returned one. The
// setup, base-OT handshakes and compiled circuits built in New are reused
// across calls, so overlapping calls interleave safely on one hub. When
// the chaos victim dies, the runtime plays the cluster coordinator's part
// in-process: cancel the attempt, re-block around the casualty, and resume
// the survivors from the latest common barrier under "q/<qid>/a/<n>".
// Callers must not reuse a qid that is still in flight; the session facade
// hands out unique ids.
func (r *Runtime) RunQueryID(ctx context.Context, qid, iterations int, epsilon float64) (int64, *Report, error) {
	root := network.Tag("q", qid)
	// Retire the query's namespace on every exit: per-prefix counters,
	// drained mailboxes, dealer streams and checkpoints would otherwise
	// accumulate per query for the life of the deployment.
	defer func() {
		r.net.RetireTagPrefix(root)
		if r.broker != nil {
			r.broker.RetireTagPrefix(root)
		}
		r.mu.Lock()
		delete(r.ckpts, qid)
		r.mu.Unlock()
	}()
	req := RunRequest{Seq: qid, Attempt: 1, FromBarrier: -1, Iterations: iterations, Epsilon: epsilon, RecKey: r.recKey}
	recoveries := 0
	for {
		results, dead, err := r.attempt(ctx, req)
		if dead != 0 {
			obs.ReportProgress(ctx, "recover")
			from, err := r.recover(qid, dead)
			if err != nil {
				return 0, nil, fmt.Errorf("vertex: recovery from node %d death: %w", dead, err)
			}
			recoveries++
			req.Attempt++
			req.FromBarrier = from
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		reps := make(map[network.NodeID]Report, len(results))
		stats := make(map[network.NodeID]network.Stats, len(results))
		var opened []int64
		for id, res := range results {
			reps[id], stats[id] = res.Report, res.Stats
			if res.HasResult {
				opened = append(opened, res.Result)
			}
		}
		// Every aggregation-block member opened the aggregate; they must agree.
		if len(opened) == 0 {
			return 0, nil, fmt.Errorf("vertex: no aggregation member opened the result")
		}
		for _, o := range opened[1:] {
			if o != opened[0] {
				return 0, nil, fmt.Errorf("vertex: aggregation members disagree: %d vs %d", opened[0], o)
			}
		}
		rep := FoldReports(reps, stats)
		rep.Recoveries = recoveries
		return opened[0], &rep, nil
	}
}

// attempt runs one attempt of a query on every live participant
// concurrently. The first failure cancels the others, so the attempt
// returns promptly; a death announced by the chaos hook cancels the
// attempt and is returned as dead. When the caller traces, each
// participant records into its own node-attributed trace, and a completed
// attempt's traces merge into the caller's.
func (r *Runtime) attempt(ctx context.Context, req RunRequest) (map[network.NodeID]*NodeResult, network.NodeID, error) {
	r.mu.Lock()
	parts := make(map[network.NodeID]*Participant, len(r.parts))
	for id, p := range r.parts {
		parts[id] = p
	}
	r.mu.Unlock()
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := obs.From(ctx)
	var progress *fleetProgress
	if fn := obs.ProgressFrom(ctx); fn != nil {
		progress = &fleetProgress{fn: fn, steps: make(map[network.NodeID]int, len(parts))}
		for id := range parts {
			progress.steps[id] = 0
		}
	}

	traces := make(map[network.NodeID]*obs.Trace, len(parts))
	results := make(map[network.NodeID]*NodeResult, len(parts))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for id, p := range parts {
		pctx := actx
		if tr != nil {
			nt := obs.NewTrace(int32(id))
			nt.SetQuery(network.Tag("q", req.Seq))
			traces[id] = nt
			pctx = obs.With(pctx, nt)
		}
		if progress != nil {
			pctx = obs.WithProgress(pctx, progress.node(id))
		}
		nreq := req
		own := int(id) - 1
		nreq.Inputs = map[int]OwnerInput{own: {InitState: r.graph.InitState[own], Priv: r.graph.Priv[own]}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(pctx, nreq)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return
			}
			results[id] = res
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var dead network.NodeID
	select {
	case <-done:
		// A death can race a failure it did not cause (the caller's ctx
		// ending); it must not leak into the next query.
		select {
		case dead = <-r.deaths:
		default:
		}
	case dead = <-r.deaths:
		cancel()
		<-done
	}
	if dead != 0 {
		return nil, dead, nil
	}
	if firstErr != nil {
		return nil, 0, firstErr
	}
	if tr != nil {
		ids := make([]network.NodeID, 0, len(traces))
		for id := range traces {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			nt := traces[id]
			tr.AddSpans(obs.ShiftSpans(nt.Spans(), nt.Epoch().Sub(tr.Epoch()).Nanoseconds()))
			tr.AddCounters(nt.Counters())
		}
	}
	return results, 0, nil
}

// recover re-blocks the deployment around dead, as the cluster
// coordinator does: take the latest barrier every node shipped, let the
// trusted party re-block, and apply the re-blocking on every survivor,
// handing the replacement the casualty's sealed snapshot. It returns the
// barrier the next attempt resumes from (−1: restart from init).
func (r *Runtime) recover(seq int, dead network.NodeID) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := make([]network.NodeID, 0, len(r.parts))
	for id := range r.parts {
		live = append(live, id)
	}
	sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
	b := MinBarrier(r.ckpts[seq], live)
	rb, err := PlanReblock(r.tp, r.setup, r.regs, r.graph, live, dead)
	if err != nil {
		return 0, err
	}
	var blobs map[int][]byte
	if b >= 0 {
		blobs = map[int][]byte{seq: r.ckpts[seq][dead][b]}
	}
	delete(r.parts, dead)
	r.setup = rb.Setup
	for _, p := range r.parts {
		if err := p.ApplyRecover(rb, blobs); err != nil {
			return 0, err
		}
	}
	return b, nil
}

// fleetProgress forwards a simulated fleet's phase advances to the
// caller's progress callback the way the cluster's health plane does: a
// phase is announced once the slowest participant has entered it.
type fleetProgress struct {
	mu    sync.Mutex
	fn    obs.ProgressFunc
	steps map[network.NodeID]int
	shown int
}

func (f *fleetProgress) node(id network.NodeID) obs.ProgressFunc {
	return func(phase string) {
		f.mu.Lock()
		f.steps[id]++
		slowest := f.steps[id]
		for _, s := range f.steps {
			slowest = min(slowest, s)
		}
		announce := slowest > f.shown
		if announce {
			f.shown = slowest
		}
		f.mu.Unlock()
		if announce {
			f.fn(phase)
		}
	}
}

// Net exposes the network hub for traffic inspection.
func (r *Runtime) Net() *network.Network { return r.net }
