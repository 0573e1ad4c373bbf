// Package dstress is a from-scratch Go implementation of DStress
// (Papadimitriou, Narayan, Haeberlen — EuroSys 2017): efficient
// differentially private computations on distributed graphs.
//
// DStress executes vertex programs over a graph that is physically
// distributed across mutually distrusting participants. Vertex states stay
// XOR-secret-shared inside blocks of k+1 nodes; per-vertex update functions
// run as small GMW multi-party computations; messages travel between blocks
// through an ElGamal-based transfer protocol that hides the graph topology;
// and the final aggregate is released with Laplace noise drawn inside MPC,
// giving differential privacy on the output.
//
// This package is the public facade over the implementation packages in
// internal/: it provides the unified execution API (Engine over both the
// in-process simulation and real TCP clusters, Session for multi-query
// deployments with an ε budget), the programming model (Program, Graph),
// the systemic-risk case studies (Eisenberg–Noe and
// Elliott–Golub–Jackson, §4 of the paper), the synthetic financial-network
// generators, and the differential-privacy budget helpers. The quickest
// way in:
//
//	net := dstress.BuildEN(topology, params)      // a debt network
//	prog := dstress.ENProgram(cfg, 1e9, 0.1)      // Figure 2(a) compiled to circuits
//	graph, _ := dstress.ENGraph(net, cfg, D)      // per-bank private inputs
//	eng := dstress.NewSimEngine(dstress.EngineConfig{
//	    Group: dstress.P256(), K: 19, Alpha: 0.999,
//	})
//	res, _ := eng.Run(ctx, dstress.Job{
//	    Program: prog, Graph: graph, Iterations: iters, Epsilon: 0.23,
//	    Decode: cfg.Decode,
//	})
//	// res.Value is the released (noised) TDS; res.Report the phase table.
//
// A standing deployment answering several budgeted queries:
//
//	sess, _ := eng.Open(ctx, job, math.Ln2)       // ε_max = ln 2 (§4.5)
//	r1, _ := sess.Query(ctx, dstress.QuerySpec{Iterations: 11, Epsilon: 0.23})
//	r2, _ := sess.Query(ctx, dstress.QuerySpec{Iterations: 11, Epsilon: 0.23})
//	// ...up to the paper's 3 queries/year; the 4th 0.23 query is refused
//
// NewClusterEngine runs the same Job on real TCP-connected node daemons;
// see examples/ for runnable programs and DESIGN.md for the system map.
// Above the facade, internal/serve and cmd/dstress-serve expose a pool of
// standing sessions as a multi-tenant HTTP query service with per-tenant
// ε admission control.
package dstress

import (
	"context"

	"dstress/internal/circuit"
	"dstress/internal/dp"
	"dstress/internal/finnet"
	"dstress/internal/group"
	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// ---------------------------------------------------------------------------
// Programming model and runtime (§3)
// ---------------------------------------------------------------------------

// Program is a DStress vertex program: state/message widths, circuit
// builders for the update and aggregation functions, the no-op message, and
// a sensitivity bound (§3.1).
type Program = vertex.Program

// Graph is the distributed property graph a program runs over; vertex v is
// owned by participant node v+1.
type Graph = vertex.Graph

// NewGraph creates an empty graph with n vertices and degree bound d.
func NewGraph(n, d int) *Graph { return vertex.NewGraph(n, d) }

// Config parameterizes a deployment: group, collusion bound k, transfer
// noise α, output-privacy ε, OT provisioning.
type Config = vertex.Config

// Runtime executes one program over one graph under MPC. It is the
// simulation backend behind NewSimEngine; most callers should use the
// Engine/Session API instead, which also covers cluster deployments and
// returns the unified Report.
type Runtime = vertex.Runtime

// NoiseSpec describes the in-MPC Laplace noise generator (Dwork et al.
// style circuit).
type NoiseSpec = vertex.NoiseSpec

// OT provisioning modes for the GMW engine.
const (
	// OTDealer uses trusted-party-dealt correlated randomness (offline
	// phase); online traffic is unchanged. Recommended for large runs.
	OTDealer = vertex.OTDealer
	// OTIKNP runs DH base OTs plus IKNP extension — the paper-faithful
	// configuration.
	OTIKNP = vertex.OTIKNP
)

// NewRuntime builds a runtime: trusted-party setup (§3.4), circuit
// compilation, one protocol participant per node, and the base-OT warm-up
// between them. ctx bounds the deployment bootstrap.
func NewRuntime(ctx context.Context, cfg Config, p *Program, g *Graph) (*Runtime, error) {
	return vertex.New(ctx, cfg, p, g)
}

// RunReference executes a program in plaintext with the exact circuits the
// MPC runtime evaluates: the trusted-aggregator baseline and test oracle.
func RunReference(p *Program, g *Graph, iterations int) (int64, error) {
	return vertex.RunReference(p, g, iterations)
}

// CircuitBuilder constructs Boolean circuits; programs receive one in their
// BuildUpdate/BuildAggregate callbacks.
type CircuitBuilder = circuit.Builder

// Word is a multi-bit circuit value (little-endian wire vector).
type Word = circuit.Word

// EncodeWord converts an integer to circuit input bits (two's complement).
func EncodeWord(v int64, width int) []uint8 { return circuit.EncodeWord(v, width) }

// DecodeWordS converts circuit output bits back to a signed integer.
func DecodeWordS(bits []uint8) int64 { return circuit.DecodeWordS(bits) }

// ---------------------------------------------------------------------------
// Groups
// ---------------------------------------------------------------------------

// Group is a prime-order cyclic group backing ElGamal and the base OTs.
type Group = group.Group

// P256 returns NIST P-256 — the default deployment group (constant-time
// assembly in the Go runtime).
func P256() Group { return group.P256() }

// P384 returns NIST P-384 (secp384r1) — the paper's prototype group.
func P384() Group { return group.P384() }

// TestGroup returns a fast multiplicative group modulo a 256-bit safe
// prime, intended for tests and demos only.
func TestGroup() Group { return group.ModP256() }

// ---------------------------------------------------------------------------
// Systemic-risk case studies (§4)
// ---------------------------------------------------------------------------

// CircuitConfig fixes the fixed-point encoding of dollar amounts in the
// risk circuits.
type CircuitConfig = risk.CircuitConfig

// DefaultCircuitConfig works in millions of dollars with 40-bit words.
func DefaultCircuitConfig() CircuitConfig { return risk.DefaultCircuitConfig() }

// ENProgram compiles the Eisenberg–Noe update rule (Figure 2(a)) into a
// vertex program; granularityDollars is the dollar-DP granularity T and
// leverage the bound r giving sensitivity 1/r.
func ENProgram(cfg CircuitConfig, granularityDollars, leverage float64) *Program {
	return risk.ENProgram(cfg, granularityDollars, leverage)
}

// EGJProgram compiles the Elliott–Golub–Jackson update rule (Figure 2(b)),
// with sensitivity 2/r.
func EGJProgram(cfg CircuitConfig, granularityDollars, leverage float64) *Program {
	return risk.EGJProgram(cfg, granularityDollars, leverage)
}

// ENGraph turns a debt network into a runnable graph with per-bank private
// inputs.
func ENGraph(net *ENNetwork, cfg CircuitConfig, D int) (*Graph, error) {
	return risk.ENGraph(net, cfg, D)
}

// EGJGraph turns a cross-holding network into a runnable graph.
func EGJGraph(net *EGJNetwork, cfg CircuitConfig, D int) (*Graph, error) {
	return risk.EGJGraph(net, cfg, D)
}

// ENResult is the plaintext Eisenberg–Noe clearing outcome.
type ENResult = risk.ENResult

// EGJResult is the plaintext Elliott–Golub–Jackson outcome.
type EGJResult = risk.EGJResult

// SolveEN computes the Eisenberg–Noe clearing vector in plaintext (ground
// truth / what a trusted regulator would compute).
func SolveEN(net *ENNetwork, maxIter int, tol float64) *ENResult {
	return risk.SolveEN(net, maxIter, tol)
}

// SolveEGJ runs the Elliott–Golub–Jackson fixpoint in plaintext.
func SolveEGJ(net *EGJNetwork, iterations int) *EGJResult {
	return risk.SolveEGJ(net, iterations)
}

// RecommendedIterations returns the log2(N) iteration count the Appendix C
// convergence experiments support.
func RecommendedIterations(n int) int { return risk.RecommendedIterations(n) }

// ---------------------------------------------------------------------------
// Synthetic financial networks (Appendix C)
// ---------------------------------------------------------------------------

// Topology is a degree-bounded directed interbank graph.
type Topology = finnet.Topology

// ENNetwork is a debt-contract network (cash reserves + debt matrix).
type ENNetwork = finnet.ENNetwork

// EGJNetwork is an equity cross-holding network.
type EGJNetwork = finnet.EGJNetwork

// Generator parameter structs.
type (
	CorePeripheryParams = finnet.CorePeripheryParams
	ScaleFreeParams     = finnet.ScaleFreeParams
	ErdosRenyiParams    = finnet.ErdosRenyiParams
	ENParams            = finnet.ENParams
	EGJParams           = finnet.EGJParams
)

// CorePeriphery generates the two-tier topology of Appendix C / Cocco et
// al.: a dense core with peripheral banks attached by one or two links.
func CorePeriphery(p CorePeripheryParams) (*Topology, error) { return finnet.CorePeriphery(p) }

// ScaleFree generates a preferential-attachment topology.
func ScaleFree(p ScaleFreeParams) (*Topology, error) { return finnet.ScaleFree(p) }

// ErdosRenyi generates a uniform random topology.
func ErdosRenyi(p ErdosRenyiParams) (*Topology, error) { return finnet.ErdosRenyi(p) }

// BuildEN lays Eisenberg–Noe balance sheets over a topology.
func BuildEN(t *Topology, p ENParams) *ENNetwork { return finnet.BuildEN(t, p) }

// BuildEGJ lays Elliott–Golub–Jackson balance sheets over a topology.
func BuildEGJ(t *Topology, p EGJParams) *EGJNetwork { return finnet.BuildEGJ(t, p) }

// ---------------------------------------------------------------------------
// Differential-privacy budgeting (§4.5, Appendix B)
// ---------------------------------------------------------------------------

// UtilityParams captures §4.5's policy inputs (budget, granularity,
// sensitivity, accuracy target).
type UtilityParams = dp.UtilityParams

// DefaultUtilityParams returns the paper's worked example (ε_max = ln 2,
// T = $1B, EGJ at r = 0.1, ±$200B at 95%).
func DefaultUtilityParams() UtilityParams { return dp.DefaultUtilityParams() }

// EdgeBudgetParams captures Appendix B's edge-privacy deployment constants.
type EdgeBudgetParams = dp.EdgeBudgetParams

// DefaultEdgeBudgetParams returns Appendix B's concrete instantiation.
func DefaultEdgeBudgetParams() EdgeBudgetParams { return dp.DefaultEdgeBudgetParams() }

// Accountant tracks ε consumption under sequential composition.
type Accountant = dp.Accountant

// NewAccountant creates an accountant with the given total ε budget.
func NewAccountant(budget float64) *Accountant { return dp.NewAccountant(budget) }
