// Package cost implements the analytical scalability model of §5.5.
//
// The paper could not run 1,750 nodes on EC2, so it calibrates per-
// operation costs from microbenchmarks and projects end-to-end cost for the
// full U.S. banking system (Figure 6), validating the model against real
// runs at N = 20 and N = 100. This package reproduces that methodology:
//
//   - Calibration holds per-unit costs (AND-gate evaluation per party pair,
//     group exponentiation, per-message overhead). Calibrate measures them
//     on the current machine; DefaultCalibration ships representative
//     values so projections work without a warm-up.
//   - Model.Estimate projects wall-clock time and per-node traffic for a
//     deployment (N, D, k, I), using the *exact* AND-gate counts of the
//     compiled update/aggregation circuits and the paper's conservative
//     assumptions (a node's block memberships do not overlap; aggregation
//     uses a two-level tree of degree 100).
//   - NaiveMatrixCircuit and ExtrapolateNaive reproduce the §5.5 baseline:
//     a monolithic MPC raising an N×N matrix to the I-th power scales as
//     O(N³·I), which turns minutes at N = 25 into centuries at N = 1750.
package cost

import (
	"time"

	"dstress/internal/circuit"
	"dstress/internal/fixed"
)

// Calibration holds measured per-unit costs.
type Calibration struct {
	// ANDGatePairNs is the time to evaluate one AND gate for one ordered
	// party pair (the triple's bulk OT + the opening + share arithmetic).
	ANDGatePairNs float64
	// ExpNs is one group exponentiation (ElGamal encrypt ≈ 2 of these).
	ExpNs float64
	// RoundLatencyNs is the per-communication-round latency of the GMW
	// engine: one AND level, a one-way exchange in which every party sends
	// its batched opening to every peer before receiving theirs.
	RoundLatencyNs float64
	// ANDGateBytesPair is the traffic per AND gate per ordered pair, in
	// bytes: 3 bits for the triple's derandomized OT, 2 bits for the
	// opening (x⊕a, y⊕b), plus framing amortized.
	ANDGateBytesPair float64
	// CiphertextBytes is one encoded ElGamal component (compressed point).
	CiphertextBytes float64
}

// DefaultCalibration returns values representative of a modern x86 core
// with the P-256 group: ~100 ns/AND-pair, ~45 µs/exponentiation. Callers
// wanting machine-accurate projections should use Calibrate.
func DefaultCalibration() Calibration {
	return Calibration{
		ANDGatePairNs:    100,
		ExpNs:            45_000,
		RoundLatencyNs:   8_000,
		ANDGateBytesPair: 1.0,
		CiphertextBytes:  33,
	}
}

// Model projects DStress costs for a deployment.
type Model struct {
	Cal Calibration
	// UpdateAnd / UpdateDepth are the update circuit's AND count and
	// multiplicative depth for the modeled degree bound.
	UpdateAnd, UpdateDepth int
	// AggAndPer100 is the aggregation circuit's AND count for a 100-state
	// group (the aggregation-tree fan-in of §5.5).
	AggAndPer100 int
	// NoiseAnd is the noising circuit's AND count.
	NoiseAnd int
	// MsgBits is the transferred message width L.
	MsgBits int
	// Machines caps physical parallelism: the paper's projections assume
	// the N nodes share a pool of 100 EC2 instances, so beyond 100 nodes
	// the per-node work serializes by a factor of ⌈N/Machines⌉ — this is
	// what makes Figure 6's curves grow with N. 0 means 100.
	Machines int
}

// Projection is one estimated deployment cost.
type Projection struct {
	Time           time.Duration
	TrafficPerNode int64 // bytes
}

// blockMPCTimeNs estimates one block MPC evaluation: per-party work is
// linear in k (each party talks to k peers), plus round latency times
// depth.
func (m Model) blockMPCTimeNs(andGates, depth, k int) float64 {
	return float64(andGates)*float64(k)*m.Cal.ANDGatePairNs +
		float64(depth)*m.Cal.RoundLatencyNs
}

// transferRelayTimeNs estimates the relay-side cost of one L-bit message
// transfer: the relay combines (k+1)² bundles homomorphically (cheap
// multiplications) and noises (k+1)·L sums (one exponentiation each); the
// senders' (k+1)(L+1) encryptions happen in parallel across nodes but the
// relay must also receive and forward. The exponentiations dominate
// (§5.2's "the cost is dominated by the exponentiations").
func (m Model) transferRelayTimeNs(k int) float64 {
	senderExps := float64(k+1) * float64(m.MsgBits+1) * m.Cal.ExpNs // one member's bundles (parallel across members)
	relayExps := float64(k+1) * float64(m.MsgBits) * m.Cal.ExpNs    // noising
	adjustExps := float64(k+1) * m.Cal.ExpNs
	receiveExps := float64(m.MsgBits) * m.Cal.ExpNs // one member decrypts L sums
	return senderExps + relayExps + adjustExps + receiveExps
}

// Estimate projects an end-to-end run for N nodes, degree bound D (already
// folded into UpdateAnd), collusion bound k, and I iterations. It follows
// §5.5's conservative assumptions: block computations of one node do not
// overlap (each node serves in ~k+1 blocks serially), while distinct nodes
// proceed in parallel.
func (m Model) Estimate(N, D, K, I int) Projection {
	k1 := float64(K + 1)
	machines := m.Machines
	if machines <= 0 {
		machines = 100
	}
	serial := float64((N + machines - 1) / machines)

	// Initialization: share splitting + distribution, negligible compute;
	// model as one round per block membership.
	initNs := k1 * m.Cal.RoundLatencyNs * 4

	// Computation: per iteration each node participates in ~k+1 block MPCs,
	// and nodes co-hosted on one machine serialize.
	stepNs := m.blockMPCTimeNs(m.UpdateAnd, m.UpdateDepth, K) * k1
	compNs := float64(I+1) * stepNs * serial

	// Communication: each node relays up to D transfers per iteration;
	// sender/receiver duties for other blocks overlap with them.
	commNs := float64(I) * float64(D) * m.transferRelayTimeNs(K) * serial

	// Aggregation: two-level tree with fan-in 100 — groups in parallel,
	// then the root (which also runs the noising circuit).
	aggNs := 2*m.blockMPCTimeNs(m.AggAndPer100, m.AggAndPer100/16+1, K) +
		m.blockMPCTimeNs(m.NoiseAnd, m.NoiseAnd/16+1, K)

	totalNs := initNs + compNs + commNs + aggNs

	// Traffic per node: GMW online bytes for k+1 block memberships plus
	// transfer-role bytes (relay receives (k+1)² bundles of L+1 components,
	// sends k+1; block-member and adjuster duties are smaller).
	gmwBytes := float64(m.UpdateAnd) * float64(K) * m.Cal.ANDGateBytesPair * k1 * float64(I+1)
	bundleBytes := float64(m.MsgBits+1) * m.Cal.CiphertextBytes
	relayBytes := (k1*k1 + k1) * bundleBytes * float64(D) * float64(I)
	senderBytes := k1 * bundleBytes * float64(D) * float64(I) * k1 // member duty in k+1 blocks
	aggBytes := float64(m.AggAndPer100+m.NoiseAnd) * float64(K) * m.Cal.ANDGateBytesPair

	return Projection{
		Time:           time.Duration(totalNs),
		TrafficPerNode: int64(gmwBytes + relayBytes + senderBytes + aggBytes),
	}
}

// ---------------------------------------------------------------------------
// Naive monolithic-MPC baseline (§5.5)
// ---------------------------------------------------------------------------

// NaiveMatrixCircuit builds an n×n fixed-point matrix-multiply circuit
// (the inner kernel of the closed-form Eisenberg–Noe computation): inputs
// are two n² word matrices, output one n² word matrix.
func NaiveMatrixCircuit(n, width int) *circuit.Circuit {
	b := circuit.NewBuilder()
	a := make([][]circuit.Word, n)
	c := make([][]circuit.Word, n)
	for i := 0; i < n; i++ {
		a[i] = make([]circuit.Word, n)
		for j := 0; j < n; j++ {
			a[i][j] = b.InputWord(width)
		}
	}
	for i := 0; i < n; i++ {
		c[i] = make([]circuit.Word, n)
		for j := 0; j < n; j++ {
			c[i][j] = b.InputWord(width)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := b.ConstWord(0, width)
			for l := 0; l < n; l++ {
				acc = b.Add(acc, b.MulFixed(a[i][l], c[l][j], fixed.Frac))
			}
			b.OutputWord(acc)
		}
	}
	return b.Build()
}

// ExtrapolateNaive scales a measured matrix-multiply time at size n to the
// target size and power count, using the O(n³) complexity of matrix
// multiplication the paper's extrapolation relies on: the full computation
// raises the matrix to the (I−1)-th power, i.e. I−1 multiplies.
func ExtrapolateNaive(measured time.Duration, n, targetN, multiplies int) time.Duration {
	scale := float64(targetN) / float64(n)
	return time.Duration(float64(measured) * scale * scale * scale * float64(multiplies))
}

// PaperNaiveEstimate reproduces §5.5's own arithmetic: 40 minutes at
// N = 25 scaled to N = 1750 with I−1 = 11 multiplies ("about 287 years").
func PaperNaiveEstimate() time.Duration {
	return ExtrapolateNaive(40*time.Minute, 25, 1750, 11)
}
