package dstress_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dstress"
	"dstress/internal/obs"
)

// TestClusterByteAccounting pins the byte-accounting relationship the
// Report docs promise (engine.go, internal/vertex/report.go), on both
// backends: each node reports its own sent+received bytes per phase, and
// the fold turns them into total bytes *sent* by halving the sum — every
// byte one node sends, exactly one node receives. Both transports charge
// every message its tcpnet frame, so the same steady query must report the
// same per-node traffic on sim and tcp.
func TestClusterByteAccounting(t *testing.T) {
	job, _ := enChainJob(t, 4)
	ctx := context.Background()
	econf := dstress.EngineConfig{Group: dstress.TestGroup(), K: 1, Alpha: 0.5, OTMode: dstress.OTIKNP}

	steady := map[string]*dstress.Report{}
	for _, tc := range []struct {
		name string
		eng  dstress.SessionEngine
	}{
		{"sim", dstress.NewSimEngine(econf)},
		{"tcp", dstress.NewClusterEngine(econf)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := tc.eng.Open(ctx, job, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			// The second query runs on the warm deployment: neither backend
			// charges it the one-time OT handshakes.
			for q := 0; q < 2; q++ {
				res, err := sess.Query(ctx, dstress.QuerySpec{Iterations: job.Iterations})
				if err != nil {
					t.Fatal(err)
				}
				checkByteFold(t, res.Report)
				steady[tc.name] = res.Report
			}
		})
	}
	sim, tcp := steady["sim"], steady["tcp"]
	if sim == nil || tcp == nil {
		return
	}
	if sim.AvgNodeBytes != tcp.AvgNodeBytes {
		t.Errorf("steady query AvgNodeBytes: sim %.1f, tcp %.1f — one transport counts a message class the other does not",
			sim.AvgNodeBytes, tcp.AvgNodeBytes)
	}
	// Halving each phase's sum separately loses under one byte per phase.
	if d := sim.TotalBytes() - tcp.TotalBytes(); d < -4 || d > 4 {
		t.Errorf("steady query TotalBytes: sim %d, tcp %d, want within 4 bytes", sim.TotalBytes(), tcp.TotalBytes())
	}
}

// checkByteFold checks one folded report against its per-node table.
func checkByteFold(t *testing.T, rep *dstress.Report) {
	t.Helper()
	if len(rep.NodePhases) != rep.Nodes {
		t.Fatalf("NodePhases has %d rows, want one per node (%d)", len(rep.NodePhases), rep.Nodes)
	}
	for i, np := range rep.NodePhases {
		if np.Node != i+1 {
			t.Errorf("NodePhases[%d].Node = %d, want %d (sorted by id)", i, np.Node, i+1)
		}
	}

	// The folded phase bytes must be exactly half the per-node sums.
	var init, comp, comm, agg int64
	for _, np := range rep.NodePhases {
		init += np.InitBytes
		comp += np.ComputeBytes
		comm += np.CommBytes
		agg += np.AggBytes
	}
	checks := []struct {
		phase       string
		folded, sum int64
	}{
		{"init", rep.InitBytes, init},
		{"compute", rep.ComputeBytes, comp},
		{"transfer", rep.CommBytes, comm},
		{"agg", rep.AggBytes, agg},
	}
	for _, c := range checks {
		if c.folded != c.sum/2 {
			t.Errorf("%s bytes: folded %d, want Σ(sent+recv)/2 = %d", c.phase, c.folded, c.sum/2)
		}
		if c.sum <= 0 {
			t.Errorf("%s bytes: per-node sum is %d, want > 0", c.phase, c.sum)
		}
	}
	// Phase deltas are carved out of each node's transport counters, so
	// their sum cannot exceed the fleet's total sent+received traffic
	// (phase *attribution* may differ across nodes — a byte sent in one
	// node's compute window can land in another's transfer window — but
	// every counted byte lives inside the transport totals).
	if total := init + comp + comm + agg; float64(total) > rep.AvgNodeBytes*float64(rep.Nodes)+1 {
		t.Errorf("phase byte sum %d exceeds fleet transport total %.0f", total, rep.AvgNodeBytes*float64(rep.Nodes))
	}

	// Straggler attribution: every phase names a real node.
	leaders := rep.SlowestNodes()
	if len(leaders) != 4 {
		t.Fatalf("SlowestNodes returned %d phases, want 4", len(leaders))
	}
	for _, l := range leaders {
		if l.Node < 1 || l.Node > rep.Nodes {
			t.Errorf("phase %s straggler node %d outside [1,%d]", l.Phase, l.Node, rep.Nodes)
		}
	}
}

// TestClusterTraceCollection runs a traced query on both backends and
// checks the driver's trace ends up with every node's spans and counters —
// the path dstress-run -trace exercises. Cluster nodes ship their tables
// over the control plane; simulated participants record their own and the
// runtime merges them.
func TestClusterTraceCollection(t *testing.T) {
	job, _ := enChainJob(t, 4)
	econf := dstress.EngineConfig{Group: dstress.TestGroup(), K: 1, Alpha: 0.5, OTMode: dstress.OTIKNP}
	for _, tc := range []struct {
		name string
		eng  dstress.Engine
	}{
		{"sim", dstress.NewSimEngine(econf)},
		{"tcp", dstress.NewClusterEngine(econf)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTrace(0)
			ctx := obs.With(context.Background(), tr)
			if _, err := tc.eng.Run(ctx, job); err != nil {
				t.Fatal(err)
			}

			// Per-node per-iteration spans, stamped with the query tag.
			spans := tr.Spans()
			byNode := map[int32]int{}
			sawIter := map[int32]bool{}
			for _, sp := range spans {
				byNode[sp.Node]++
				if strings.HasPrefix(sp.Name, "iter/") {
					sawIter[sp.Node] = true
					if sp.Query != "q/1" {
						t.Errorf("span %q on node %d has query tag %q, want q/1", sp.Name, sp.Node, sp.Query)
					}
				}
			}
			for id := int32(1); id <= 4; id++ {
				if byNode[id] == 0 {
					t.Errorf("no spans collected from node %d", id)
				}
				if !sawIter[id] {
					t.Errorf("no per-iteration spans from node %d", id)
				}
			}

			// Protocol counters folded across the fleet.
			counters := tr.Counters()
			for _, want := range []string{"gmw/evals", "gmw/and_rounds", "ot/derand_batches"} {
				if counters[want] <= 0 {
					t.Errorf("counter %q = %d, want > 0", want, counters[want])
				}
			}
			var netBytes int64
			for name, v := range counters {
				if strings.HasPrefix(name, "net/") && strings.HasSuffix(name, "/bytes_sent") {
					netBytes += v
				}
			}
			if netBytes <= 0 {
				t.Errorf("no net/<prefix>/bytes_sent counters collected (got %v)", counters)
			}

			// The collected trace must export as valid Chrome trace JSON.
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("trace export is not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) < len(spans) {
				t.Errorf("trace export has %d events for %d spans", len(doc.TraceEvents), len(spans))
			}
		})
	}
}
