package dstress

import (
	"testing"

	"dstress/internal/cluster"
	"dstress/internal/network"
	"dstress/internal/vertex"
)

// TestSummaryReportAggAndGates: only aggregation-block members compile the
// aggregate circuit, so the other nodes report 0 AND gates; the merged
// report must carry the members' count whatever order the map yields.
func TestSummaryReportAggAndGates(t *testing.T) {
	const want = 4321
	sum := &cluster.Summary{Reports: make(map[network.NodeID]vertex.Report)}
	for id := network.NodeID(1); id <= 8; id++ {
		rep := vertex.Report{UpdateAndGates: 100}
		if id == 3 || id == 6 {
			rep.AggAndGates = want
		}
		sum.Reports[id] = rep
	}
	for i := 0; i < 50; i++ {
		if got := summaryReport(sum, 8).AggAndGates; got != want {
			t.Fatalf("merged AggAndGates = %d, want %d", got, want)
		}
	}
}
