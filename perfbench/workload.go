package main

import (
	"fmt"

	"dstress"
	"dstress/internal/vertex"
)

// queryEpsilon is the paper's per-query output-privacy budget (§4.5):
// three queries a year against an ε_max of ln 2.
const queryEpsilon = 0.23

// transferAlpha is the transfer-noise parameter every workload deploys
// with (§3.5).
const transferAlpha = 0.9

// workload is one named benchmark configuration. Every workload runs P256
// with α = 0.9 transfer noise and IKNP OTs; they differ in program, graph
// shape and backend so that each stresses a different layer.
type workload struct {
	Name    string
	Why     string
	Backend string // "sim" (in-process hub) or "tcp" (loopback cluster)
	Program string // "en" (Eisenberg–Noe) or "degree-sum"
	N, Core int    // banks and core size of the core-periphery graph
	D       int    // public degree bound
	K       int    // collusion bound; blocks have K+1 members
	Iters   int    // iterations per query
	Shock   int    // EN only: core banks whose reserves are wiped
}

var workloads = []workload{
	{
		Name:    "en-sim",
		Why:     "Eisenberg-Noe, N=8 D=4 k=1 I=2 on the sim hub: bound by GMW AND rounds (depth 2434), so circuit, gmw, ot and hub changes show",
		Backend: "sim", Program: "en", N: 8, Core: 4, D: 4, K: 1, Iters: 2, Shock: 2,
	},
	{
		Name:    "en-tcp",
		Why:     "the en-sim query on a loopback cluster, one daemon per bank: every AND round crosses tcpnet frames and the cluster node engine",
		Backend: "tcp", Program: "en", N: 8, Core: 4, D: 4, K: 1, Iters: 2, Shock: 2,
	},
	{
		Name:    "transfer-sim",
		Why:     "degree sum (60-AND circuit), N=16 D=6 I=3 on the sim hub: ElGamal transfers are ~90% of the query, GMW depth is not",
		Backend: "sim", Program: "degree-sum", N: 16, Core: 4, D: 6, K: 1, Iters: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// enSpec is the Eisenberg–Noe program the en workloads run, as
// cmd/dstress-run builds it: 32-bit words in millions of dollars, $1M
// granularity, leverage bound 0.1.
var enSpec = dstress.ProgramSpec{Kind: "en", Width: 32, Unit: 1e6, GranularityDollars: 1e6, Leverage: 0.1}

// inputs is everything a workload's queries run on, generated from the
// seed. The program under test only ever sees Job.
type inputs struct {
	Job       dstress.Job
	Program   *dstress.Program
	Reference int64 // RunReference at Job.Iterations: the exact ε = 0 answer
}

// makeInputs generates the workload's topology and private inputs from
// seed; the same seed always yields the same graph and reference value.
func (w workload) makeInputs(seed int64) (*inputs, error) {
	top, err := dstress.CorePeriphery(dstress.CorePeripheryParams{
		N: w.N, Core: w.Core, D: w.D, PeriLink: 2, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{Job: dstress.Job{Iterations: w.Iters, Epsilon: queryEpsilon}}
	var graph *dstress.Graph
	switch w.Program {
	case "en":
		net := dstress.BuildEN(top, dstress.ENParams{
			CoreCash: 60e6, PeriCash: 5e6, CoreSize: w.Core, DebtScale: 30e6, Seed: seed,
		})
		shocked := make([]int, w.Shock)
		for i := range shocked {
			shocked[i] = i
		}
		net.ApplyCashShock(shocked, 0)
		ccfg := dstress.CircuitConfig{Width: enSpec.Width, Unit: enSpec.Unit}
		if graph, err = dstress.ENGraph(net, ccfg, w.D); err != nil {
			return nil, err
		}
		if in.Program, err = enSpec.Build(); err != nil {
			return nil, err
		}
		spec := enSpec
		in.Job.Spec = &spec
	case "degree-sum":
		if graph, err = degreeSumGraph(top); err != nil {
			return nil, err
		}
		in.Program = degreeSumProgram()
	default:
		return nil, fmt.Errorf("workload %s: unknown program %q", w.Name, w.Program)
	}
	in.Job.Graph = graph
	// Cluster jobs ship the spec; the simulation runs the compiled program.
	if w.Backend == "sim" {
		in.Job.Program = in.Program
	}
	if in.Reference, err = dstress.RunReference(in.Program, graph, w.Iters); err != nil {
		return nil, err
	}
	return in, nil
}

// noiseBound is the structural bound on the released value's distance
// from the reference at ε: the in-MPC sampler truncates each geometric
// variable at Trials, so |noise| ≤ Trials·2^Shift raw units, exactly. At
// ε = 0 there is no noise and the bound is 0.
func (in *inputs) noiseBound(epsilon float64) int64 {
	spec := vertex.DefaultNoiseSpec(epsilon, in.Program.Sensitivity, 0)
	return int64(spec.Trials) << spec.Shift
}

// check reports whether a released raw value is correct for a query at
// epsilon: within the noise bound of the reference, so exactly the
// reference at ε = 0.
func (in *inputs) check(raw int64, epsilon float64) error {
	diff := raw - in.Reference
	if diff < 0 {
		diff = -diff
	}
	if bound := in.noiseBound(epsilon); diff > bound {
		return fmt.Errorf("release %d is %d from reference %d, beyond the noise bound %d", raw, diff, in.Reference, bound)
	}
	return nil
}

// degreeSumGraph lays the topology's edges into a runnable graph; the
// degree-sum program has no private inputs beyond a 1-bit placeholder.
func degreeSumGraph(top *dstress.Topology) (*dstress.Graph, error) {
	g := dstress.NewGraph(top.N, top.D)
	for u, outs := range top.Out {
		for _, v := range outs {
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	for v := range g.Priv {
		g.Priv[v] = []uint8{0}
	}
	return g, nil
}

// degreeSumProgram is the examples/private_degree_sum circuit: every vertex
// sends 1 on each out-slot and its state becomes the sum of what it
// receives, so the aggregate counts the edges. The update circuit is a
// chain of D−1 12-bit adders (60 ANDs at D = 6), which leaves transfers as
// the dominant cost of a query.
func degreeSumProgram() *dstress.Program {
	const w = 12
	return &dstress.Program{
		Name:        "degree-sum",
		StateBits:   w,
		MsgBits:     w,
		AggBits:     20,
		NoOp:        0,
		Sensitivity: 1,
		PrivBits:    func(D int) int { return 1 },
		BuildUpdate: func(b *dstress.CircuitBuilder, D int, state, priv dstress.Word, msgs []dstress.Word) (dstress.Word, []dstress.Word) {
			acc := b.ConstWord(0, len(state))
			for _, m := range msgs {
				acc = b.Add(acc, m)
			}
			one := b.ConstWord(1, len(state))
			out := make([]dstress.Word, D)
			for d := range out {
				out[d] = one
			}
			return acc, out
		},
		BuildAggregate: func(b *dstress.CircuitBuilder, states []dstress.Word) dstress.Word {
			acc := b.ConstWord(0, 20)
			for _, s := range states {
				acc = b.Add(acc, b.ZeroExtend(s, 20))
			}
			return acc
		},
	}
}
