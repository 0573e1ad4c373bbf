package dstress

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dstress/internal/cluster"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/vertex"
)

// ---------------------------------------------------------------------------
// Unified execution API
//
// DStress has two execution backends: the in-process simulation
// (internal/vertex, one protocol participant per node on the hub) and the
// cluster deployment (internal/cluster, one participant per daemon over
// TCP). Both run the same vertex.Participant and are byte-compatible on
// the wire; the Engine interface runs the same Job through either, and
// Session keeps a deployment standing across multiple budgeted queries.
// ---------------------------------------------------------------------------

// Job describes one query against a deployment: which program over which
// graph, how many iterations, and the output-privacy budget ε for the
// released aggregate.
type Job struct {
	// Program is the compiled vertex program. The simulation backend uses
	// it directly; it may be nil when Spec is set.
	Program *Program
	// Spec names a registered program family (see RegisterProgram).
	// Cluster backends require it — circuit-builder closures cannot travel
	// over the control plane, so every node compiles the spec locally —
	// and the simulation backend falls back to it when Program is nil.
	Spec *ProgramSpec
	// Graph is the distributed property graph, including every owner's
	// initial states and private inputs.
	Graph *Graph
	// Iterations is the number of computation+communication steps.
	Iterations int
	// Epsilon is the output-privacy budget charged for this query's
	// release; 0 disables the final Laplace noise (correctness tests
	// only — a real deployment always noises, §3.6).
	Epsilon float64
	// Decode converts the released raw fixed-point aggregate to its
	// real-world value (e.g. CircuitConfig.Decode for dollars). Optional;
	// when nil, Result.Value is the raw value.
	Decode func(int64) float64
}

// program resolves the compiled program from Program or Spec.
func (j *Job) program() (*Program, error) {
	if j.Program != nil {
		return j.Program, nil
	}
	if j.Spec != nil {
		return j.Spec.Build()
	}
	return nil, fmt.Errorf("dstress: job has neither Program nor Spec")
}

// Result is the outcome of one query.
type Result struct {
	// Raw is the opened (noised) aggregate in raw fixed-point units.
	Raw int64
	// Value is Decode(Raw), or float64(Raw) when the job has no decoder.
	Value float64
	// Epsilon is the privacy budget this release consumed.
	Epsilon float64
	// Report describes the execution that produced the result.
	Report *Report
}

// Report summarizes one execution with the same fields in both modes: the
// per-phase wall times and traffic of the paper's Figures 3–6. Both
// backends run one protocol participant per node and fold the nodes' own
// reports the same way (vertex.FoldReports): each phase takes the slowest
// node's duration (phases barrier on the protocol's own communication),
// and phase bytes halve the summed per-node sent+received counters, i.e.
// total bytes *sent*. Both transports charge every message its tcpnet
// frame size. A cluster Init additionally includes the pairwise OT
// handshakes, which the simulation performs at Open; on a Session only the
// first query pays them.
type Report struct {
	// Transport is "sim" or "tcp".
	Transport string
	// Nodes is the number of participants.
	Nodes int
	// WallTime is the end-to-end duration observed by the driver.
	WallTime time.Duration
	// The folded phase times and traffic, setup cost, per-node traffic
	// summary, circuit sizes, recovery counters and the per-node phase
	// table (NodePhases, one row per participant sorted by node id).
	vertex.Report
}

// NodePhase is one node's per-phase wall times and its sent+received
// traffic, as reported by the node itself.
type NodePhase = vertex.NodePhase

// PhaseLeader names the slowest node for one phase (Report.SlowestNodes).
type PhaseLeader = vertex.PhaseLeader

// Engine runs jobs. Both backends implement it: NewSimEngine executes
// in-process against the simulated hub, NewClusterEngine stands up real
// TCP-connected node daemons. Canceling ctx aborts the run — every blocked
// protocol receive returns an error instead of hanging on a dead or slow
// counterparty.
type Engine interface {
	Run(ctx context.Context, job Job) (*Result, error)
}

// SessionEngine is an Engine that can hold a deployment open across
// queries: trusted-party setup, GMW handshakes, and fixed-base tables are
// paid once at Open and reused by every Query. Each Open stands up an
// independent deployment; queries on one session multiplex up to its
// MaxConcurrent admission limit (each under its own "q/<id>" tag
// namespace, so their protocol messages cannot collide), and beyond the
// limit Query fails fast with ErrSessionBusy. The internal/serve query
// service scales throughput on both axes: a pool of sessions, each
// admitting several concurrent queries.
type SessionEngine interface {
	Engine
	Open(ctx context.Context, job Job, budget float64) (*Session, error)
}

// EngineConfig parameterizes a deployment. Unlike the per-query knobs on
// Job, these are fixed for the deployment's lifetime.
type EngineConfig struct {
	// Group is the cyclic group for ElGamal and base OTs.
	Group Group
	// K is the collusion bound; blocks have K+1 members (§3.2).
	K int
	// Alpha is the transfer-noise parameter (§3.5); 0 disables edge
	// noising.
	Alpha float64
	// NoiseShift samples output noise at a granularity of 2^NoiseShift raw
	// LSBs (set to the program's fractional bits).
	NoiseShift int
	// OTMode selects dealer vs IKNP OT provisioning. Simulation only:
	// cluster runs always use IKNP (a dealer broker is an in-process
	// object and cannot span machines).
	OTMode OTMode
	// TablePFail is the per-decryption failure budget used to size the
	// ElGamal lookup table (Appendix B); 0 means 1e-12.
	TablePFail float64
	// AggFanIn enables hierarchical aggregation (§3.6); 0 keeps the single
	// aggregation block.
	AggFanIn int
	// HeartbeatInterval is the cluster health plane's ping cadence; 0 means
	// the cluster default (1s). Simulation backends have no fleet and ignore
	// it.
	HeartbeatInterval time.Duration
	// StallWindow is how long an in-flight query's slowest node may sit in
	// one phase before the coordinator's watchdog flags the query as
	// stalled; 0 means the cluster default (30s).
	StallWindow time.Duration
	// Recover opts the deployment into failure recovery: share state is
	// checkpointed at every phase barrier and an attributed node death
	// re-blocks the deployment around the casualty and resumes in-flight
	// queries instead of failing them. Off by default (fail-stop, matching
	// the paper's prototype).
	Recover bool
	// ChaosNode and ChaosBarrier inject a deterministic fault for recovery
	// testing: node ChaosNode dies right after the compute step of
	// iteration ChaosBarrier of its first query. 0 disables.
	ChaosNode    int
	ChaosBarrier int
}

// OTMode selects the GMW oblivious-transfer provisioning (OTDealer or
// OTIKNP).
type OTMode = vertex.OTMode

// ProgramSpec names a vertex program plus its compile-time parameters, so
// a program can be shipped over the cluster control plane by name and
// compiled identically on every node.
type ProgramSpec = cluster.ProgramSpec

// RegisterProgram adds a custom program family to the spec registry; every
// node binary of a cluster must register the same kinds.
func RegisterProgram(kind string, build func(ProgramSpec) (*Program, error)) {
	cluster.RegisterProgram(kind, build)
}

// FleetHealth is a snapshot of a cluster deployment's health plane — see
// Session.Fleet.
type FleetHealth = cluster.FleetHealth

// NodeHealth is one node's row in a FleetHealth snapshot.
type NodeHealth = cluster.NodeHealth

// QueryError is the structured error a cluster query fails with when the
// health plane can attribute the failure to a node: it names the dead or
// faulty node, its last completed phase, and carries the flight-recorder
// tail. Recover it with errors.As and write Dump() next to your logs.
type QueryError = cluster.QueryError

// ---------------------------------------------------------------------------
// Simulation engine
// ---------------------------------------------------------------------------

// SimEngine executes jobs on the in-process simulated deployment.
type SimEngine struct {
	cfg EngineConfig
}

var (
	_ SessionEngine = (*SimEngine)(nil)
	_ SessionEngine = (*ClusterEngine)(nil)
)

// NewSimEngine returns the simulation backend.
func NewSimEngine(cfg EngineConfig) *SimEngine { return &SimEngine{cfg: cfg} }

func (e *SimEngine) vertexConfig(epsilon float64) Config {
	cfg := Config{
		Group: e.cfg.Group, K: e.cfg.K, Alpha: e.cfg.Alpha, Epsilon: epsilon,
		NoiseShift: e.cfg.NoiseShift, OTMode: e.cfg.OTMode,
		TablePFail: e.cfg.TablePFail, AggFanIn: e.cfg.AggFanIn,
		Recover: e.cfg.Recover,
	}
	if e.cfg.ChaosNode > 0 {
		cfg.Chaos = &vertex.ChaosSpec{
			Victim:  network.NodeID(e.cfg.ChaosNode),
			Barrier: e.cfg.ChaosBarrier,
		}
	}
	return cfg
}

// Run executes one job end to end: deployment setup, the query, teardown.
func (e *SimEngine) Run(ctx context.Context, job Job) (*Result, error) {
	sess, err := e.Open(ctx, job, 0)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Query(ctx, QuerySpec{Iterations: job.Iterations, Epsilon: job.Epsilon})
}

// Open stands the simulated deployment up — trusted-party setup, block GMW
// sessions with their OT handshakes, circuit compilation — and returns a
// Session whose queries reuse all of it. budget is the total ε the session
// may spend (0 = unmetered); job's Iterations and Epsilon become the
// session's defaults.
func (e *SimEngine) Open(ctx context.Context, job Job, budget float64) (*Session, error) {
	prog, err := job.program()
	if err != nil {
		return nil, err
	}
	rt, err := vertex.New(ctx, e.vertexConfig(job.Epsilon), prog, job.Graph)
	if err != nil {
		return nil, err
	}
	return newSession(&simBackend{rt: rt, nodes: job.Graph.N()}, job, budget), nil
}

type simBackend struct {
	rt    *vertex.Runtime
	nodes int
}

func (b *simBackend) query(ctx context.Context, seq int, q QuerySpec) (int64, *Report, error) {
	start := time.Now()
	raw, rep, err := b.rt.RunQueryID(ctx, seq, q.Iterations, q.Epsilon)
	if err != nil {
		return 0, nil, err
	}
	return raw, &Report{Transport: "sim", Nodes: b.nodes, WallTime: time.Since(start), Report: *rep}, nil
}

func (b *simBackend) fleet() *FleetHealth { return nil }

func (b *simBackend) close() error { return nil }

// ---------------------------------------------------------------------------
// Cluster engine
// ---------------------------------------------------------------------------

// ClusterEngine executes jobs on a loopback TCP cluster: one coordinator
// plus one real node daemon per vertex, each with its own tcpnet data
// plane, every message crossing a real socket. Jobs must carry a Spec.
// Multi-machine deployments run cmd/dstress-node on each machine instead;
// the protocol and wire format are identical.
type ClusterEngine struct {
	cfg EngineConfig
}

// NewClusterEngine returns the loopback-cluster backend. OTMode is
// ignored: cluster nodes always provision OTs with IKNP.
func NewClusterEngine(cfg EngineConfig) *ClusterEngine { return &ClusterEngine{cfg: cfg} }

func (e *ClusterEngine) scenario(job Job) (cluster.Scenario, error) {
	if e.cfg.Group == nil {
		return cluster.Scenario{}, fmt.Errorf("dstress: cluster engine needs a group")
	}
	if job.Spec == nil {
		return cluster.Scenario{}, fmt.Errorf("dstress: cluster jobs need a Spec (closures cannot cross the control plane); register the program and name it")
	}
	return cluster.Scenario{
		Cfg: cluster.ConfigWire{
			Group: e.cfg.Group.Name(), K: e.cfg.K, Alpha: e.cfg.Alpha,
			Epsilon: job.Epsilon, NoiseShift: e.cfg.NoiseShift,
			TablePFail: e.cfg.TablePFail, AggFanIn: e.cfg.AggFanIn,
		},
		Prog:         *job.Spec,
		Graph:        job.Graph,
		Iterations:   job.Iterations,
		Heartbeat:    e.cfg.HeartbeatInterval,
		StallWindow:  e.cfg.StallWindow,
		Recover:      e.cfg.Recover,
		ChaosNode:    network.NodeID(e.cfg.ChaosNode),
		ChaosBarrier: e.cfg.ChaosBarrier,
	}, nil
}

// Run executes one job end to end on a fresh loopback cluster.
func (e *ClusterEngine) Run(ctx context.Context, job Job) (*Result, error) {
	sess, err := e.Open(ctx, job, 0)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Query(ctx, QuerySpec{Iterations: job.Iterations, Epsilon: job.Epsilon})
}

// Open stands a loopback cluster up — node registration, trusted-party
// setup, standing control connections — and returns a Session whose
// queries reuse the fleet (GMW handshakes happen once, on the first
// query). budget is the total ε the session may spend (0 = unmetered).
func (e *ClusterEngine) Open(ctx context.Context, job Job, budget float64) (*Session, error) {
	sc, err := e.scenario(job)
	if err != nil {
		return nil, err
	}
	lb, err := cluster.OpenLoopback(ctx, sc)
	if err != nil {
		return nil, err
	}
	return newSession(&clusterBackend{lb: lb, nodes: job.Graph.N()}, job, budget), nil
}

type clusterBackend struct {
	lb    *cluster.Loopback
	nodes int
}

func (b *clusterBackend) query(ctx context.Context, seq int, q QuerySpec) (int64, *Report, error) {
	sum, err := b.lb.Run(ctx, cluster.Query{Seq: seq, Iterations: q.Iterations, Epsilon: q.Epsilon})
	if err != nil {
		return 0, nil, err
	}
	// If the caller is tracing, fold the nodes' span tables and protocol
	// counters (shipped back on the control plane) into its trace. Each
	// node's spans arrive relative to that node's own trace epoch on its
	// own clock; the health plane's NTP-style heartbeat exchange estimates
	// each node's clock offset, so the merge rebases every table onto the
	// driver's timeline: shift = nodeEpoch − offset − driverEpoch. Nodes
	// without a clock estimate yet (e.g. the fleet died before the first
	// beat) fall back to the old node-relative offsets.
	if tr := obs.From(ctx); tr != nil {
		base := tr.Epoch().UnixNano()
		ids := make([]int, 0, len(sum.Spans))
		for id := range sum.Spans {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			nid := network.NodeID(id)
			spans := sum.Spans[nid]
			if ci, ok := sum.Clock[nid]; ok && ci.Synced && ci.EpochUnixNS != 0 {
				shift := ci.EpochUnixNS - int64(ci.Offset) - base
				spans = obs.ShiftSpans(spans, shift)
			}
			tr.AddSpans(spans)
			tr.AddCounters(sum.Counters[nid])
		}
	}
	return sum.Result, summaryReport(sum, b.nodes), nil
}

func (b *clusterBackend) fleet() *FleetHealth { return b.lb.Health() }

func (b *clusterBackend) close() error { return b.lb.Close() }

// summaryReport folds a cluster Summary's per-node reports and counters
// into the unified shape, exactly as the simulation folds its
// participants' (vertex.FoldReports).
func summaryReport(sum *cluster.Summary, nodes int) *Report {
	rep := vertex.FoldReports(sum.Reports, sum.Stats)
	rep.Recoveries = sum.Recoveries
	return &Report{Transport: "tcp", Nodes: nodes, WallTime: sum.WallTime, Report: rep}
}
