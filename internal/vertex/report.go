package vertex

import (
	"sort"
	"time"

	"dstress/internal/network"
)

// Report summarizes an execution: the quantities Figures 3–6 plot. A
// participant fills one for its own node; FoldReports folds a fleet's
// per-node reports into the deployment's view, which both backends report.
type Report struct {
	// Phase wall-clock durations. Noising happens inside the aggregation
	// MPC, matching the paper's "Aggregation & noising" bar in Figure 5.
	InitTime, ComputeTime, CommTime, AggTime time.Duration
	// SetupTime is the one-time deployment-open cost: the pairwise base-OT
	// handshakes, plus, on a simulated deployment, trusted-party setup and
	// circuit compilation. The simulation pays it before the first query
	// (Runtime's New); a cluster node pays it inside the first query's
	// Init phase. It is the same for every query of a standing deployment.
	SetupTime time.Duration
	// BaseOTHandshakes counts the pairwise base-OT bootstraps performed
	// (per node in a node's report, summed over the fleet in a folded one).
	// With the OT substrate this equals the number of ordered node pairs
	// sharing at least one session — independent of the block count.
	// Dealer-provisioned runs report 0.
	BaseOTHandshakes int64
	// Phase traffic. A node's report holds its own sent+received bytes
	// under the query's tag namespace — every message charged its tcpnet
	// frame size (network.FrameBytes) on both transports — and the first
	// query of a cluster node also counts the pairwise OT handshakes in
	// its Init. A folded report holds total bytes sent: every byte one
	// node sends, exactly one node receives, so the fold halves the sum
	// of the per-node counts.
	InitBytes, ComputeBytes, CommBytes, AggBytes int64
	// AvgNodeBytes and MaxNodeBytes summarize per-node sent+received
	// traffic (folded reports only).
	AvgNodeBytes float64
	MaxNodeBytes int64
	// Iterations actually executed.
	Iterations int
	// UpdateAndGates and AggAndGates record circuit sizes (cost drivers).
	// Only aggregation-block members compile the aggregate circuit; other
	// nodes report 0 and a fold takes the maximum.
	UpdateAndGates, AggAndGates int
	// Recoveries counts node deaths this query survived by re-blocking;
	// ReplayedBarriers counts the lock-step barriers re-executed to resume
	// (a fold takes the deepest node's).
	Recoveries, ReplayedBarriers int
	// NodePhases is the per-node phase table behind a folded report, one
	// row per participant sorted by node id; nil in a node's own report.
	NodePhases []NodePhase
}

// NodePhase is one node's per-phase wall times and its sent+received
// traffic, as reported by the node itself.
type NodePhase struct {
	Node                                         int
	InitTime, ComputeTime, CommTime, AggTime     time.Duration
	InitBytes, ComputeBytes, CommBytes, AggBytes int64
}

// PhaseLeader names the slowest node for one phase — the straggler whose
// wall time the folded Report shows, since every phase barriers on the
// protocol's own communication.
type PhaseLeader struct {
	Phase string
	Node  int
	Time  time.Duration
}

// SlowestNodes returns the straggler per phase (init, compute, communicate,
// aggregate), in execution order. Empty when the report has no per-node
// table.
func (r *Report) SlowestNodes() []PhaseLeader {
	if len(r.NodePhases) == 0 {
		return nil
	}
	leaders := []PhaseLeader{
		{Phase: "init"}, {Phase: "compute"}, {Phase: "communicate"}, {Phase: "aggregate"},
	}
	for _, np := range r.NodePhases {
		times := [4]time.Duration{np.InitTime, np.ComputeTime, np.CommTime, np.AggTime}
		for i, t := range times {
			if t > leaders[i].Time {
				leaders[i].Time = t
				leaders[i].Node = np.Node
			}
		}
	}
	return leaders
}

// TotalTime returns the summed phase durations.
func (r *Report) TotalTime() time.Duration {
	return r.InitTime + r.ComputeTime + r.CommTime + r.AggTime
}

// TotalBytes returns the summed phase traffic.
func (r *Report) TotalBytes() int64 {
	return r.InitBytes + r.ComputeBytes + r.CommBytes + r.AggBytes
}

// FoldReports folds one query's per-node reports and transport counters
// into the fleet's view. Phase times are the slowest node's — the
// protocol's own communication barriers make that the wall time of the
// phase — and phase bytes are the summed per-node sent+received counts
// halved, i.e. total bytes sent. AvgNodeBytes and MaxNodeBytes come from
// the per-node counters.
func FoldReports(reps map[network.NodeID]Report, stats map[network.NodeID]network.Stats) Report {
	var out Report
	var initB, compB, commB, aggB int64
	for id, rep := range reps {
		out.InitTime = max(out.InitTime, rep.InitTime)
		out.ComputeTime = max(out.ComputeTime, rep.ComputeTime)
		out.CommTime = max(out.CommTime, rep.CommTime)
		out.AggTime = max(out.AggTime, rep.AggTime)
		out.SetupTime = max(out.SetupTime, rep.SetupTime)
		out.BaseOTHandshakes += rep.BaseOTHandshakes
		initB += rep.InitBytes
		compB += rep.ComputeBytes
		commB += rep.CommBytes
		aggB += rep.AggBytes
		out.Iterations = rep.Iterations
		out.UpdateAndGates = rep.UpdateAndGates
		out.AggAndGates = max(out.AggAndGates, rep.AggAndGates)
		out.Recoveries = max(out.Recoveries, rep.Recoveries)
		out.ReplayedBarriers = max(out.ReplayedBarriers, rep.ReplayedBarriers)
		out.NodePhases = append(out.NodePhases, NodePhase{
			Node:     int(id),
			InitTime: rep.InitTime, ComputeTime: rep.ComputeTime,
			CommTime: rep.CommTime, AggTime: rep.AggTime,
			InitBytes: rep.InitBytes, ComputeBytes: rep.ComputeBytes,
			CommBytes: rep.CommBytes, AggBytes: rep.AggBytes,
		})
	}
	sort.Slice(out.NodePhases, func(a, b int) bool { return out.NodePhases[a].Node < out.NodePhases[b].Node })
	out.InitBytes, out.ComputeBytes, out.CommBytes, out.AggBytes = initB/2, compB/2, commB/2, aggB/2
	var total int64
	for _, st := range stats {
		v := st.BytesSent + st.BytesReceived
		total += v
		out.MaxNodeBytes = max(out.MaxNodeBytes, v)
	}
	if len(stats) > 0 {
		out.AvgNodeBytes = float64(total) / float64(len(stats))
	}
	return out
}
