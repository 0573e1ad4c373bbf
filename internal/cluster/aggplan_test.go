package cluster

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"dstress/internal/network"
	"dstress/internal/vertex"
)

// aggBlock reads the session's current aggregation block.
func aggBlock(lb *Loopback) []network.NodeID {
	lb.sess.mu.Lock()
	defer lb.sess.mu.Unlock()
	return append([]network.NodeID(nil), lb.sess.setup.Assignment.AggBlock...)
}

// compiledAgg reports whether a node's span table records a compile of
// the flat aggregate circuit.
func compiledAgg(sum *Summary, id network.NodeID) bool {
	for _, sp := range sum.Spans[id] {
		if sp.Name == "init/agg_circuit" {
			return true
		}
	}
	return false
}

// checkAggCompiles asserts that exactly the members of agg compiled the
// aggregate circuit in this query (when compiled is true) or none did, and
// that every member reports its AND count while the others report 0.
func checkAggCompiles(t *testing.T, sum *Summary, agg []network.NodeID, wantAnd int, compiled bool) {
	t.Helper()
	for id, rep := range sum.Reports {
		member := slices.Contains(agg, id)
		if got := compiledAgg(sum, id); got != (member && compiled) {
			t.Errorf("node %d (aggregation member %v): compiled aggregate circuit = %v", id, member, got)
		}
		want := 0
		if member {
			want = wantAnd
		}
		if rep.AggAndGates != want {
			t.Errorf("node %d (aggregation member %v): AggAndGates = %d, want %d", id, member, rep.AggAndGates, want)
		}
	}
}

// TestAggCircuitOnlyOnMembers: on a loopback cluster only the k+1
// aggregation-block members compile the aggregate circuit, once per budget;
// a second query at the same budget reuses it.
func TestAggCircuitOnlyOnMembers(t *testing.T) {
	cfg := ConfigWire{Group: "modp256", K: 1, Alpha: 0.5}
	const iters = 2
	sc, _ := enChainScenario(t, 4, cfg, iters)
	prog, err := sc.Prog.Build()
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prog.AggregateCircuit(sc.Graph.N(), vertex.NoiseSpec{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lb, err := OpenLoopback(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	agg := aggBlock(lb)
	if len(agg) != cfg.K+1 {
		t.Fatalf("aggregation block %v, want %d members", agg, cfg.K+1)
	}
	for q, compiled := range []bool{true, false} {
		sum, err := lb.Run(ctx, Query{Iterations: iters})
		if err != nil {
			t.Fatalf("query %d: %v", q+1, err)
		}
		checkAggCompiles(t, sum, agg, circ.NumAnd, compiled)
	}
}

// TestRecoveryReplacementJoinsAggBlock kills node 1, which the trusted
// party always places in the aggregation block: its replacement is adopted
// into the block by recovery and must compile the aggregate circuit on its
// resumed attempt, and the ε = 0 release stays exact.
func TestRecoveryReplacementJoinsAggBlock(t *testing.T) {
	cfg := ConfigWire{Group: "modp256", K: 1, Alpha: 0.5}
	const iters = 4
	const victim = network.NodeID(1)
	sc, exact := enChainScenario(t, 6, cfg, iters)
	sc.Heartbeat = 25 * time.Millisecond
	sc.Recover = true
	sc.ChaosNode = victim
	sc.ChaosBarrier = 1
	prog, err := sc.Prog.Build()
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prog.AggregateCircuit(sc.Graph.N(), vertex.NoiseSpec{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	var lb *Loopback
	var sum *Summary
	for attempt := 1; ; attempt++ {
		lb, err = OpenLoopback(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(aggBlock(lb), victim) {
			t.Fatalf("aggregation block %v does not contain node %d", aggBlock(lb), victim)
		}
		sum, err = lb.Run(ctx, Query{Iterations: iters})
		if err == nil {
			break
		}
		lb.Close()
		if !strings.Contains(err.Error(), "no surviving node can replace") || attempt >= 5 {
			t.Fatalf("recovered run failed: %v", err)
		}
		t.Logf("assignment draw %d left the victim unrecoverable, redrawing: %v", attempt, err)
	}
	defer lb.Close()
	if sum.Result != exact {
		t.Errorf("recovered result %d != reference %d", sum.Result, exact)
	}
	if sum.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", sum.Recoveries)
	}
	agg := aggBlock(lb)
	if slices.Contains(agg, victim) {
		t.Fatalf("aggregation block %v still holds the dead node", agg)
	}
	// The survivor that was already a member compiled during the first
	// attempt, whose spans are discarded; the replacement compiles during
	// the resumed one.
	for _, id := range agg {
		if sum.Reports[id].AggAndGates != circ.NumAnd {
			t.Errorf("member %d: AggAndGates = %d, want %d", id, sum.Reports[id].AggAndGates, circ.NumAnd)
		}
	}
	var compiled []network.NodeID
	for id := range sum.Reports {
		if compiledAgg(sum, id) {
			compiled = append(compiled, id)
		}
	}
	if len(compiled) != 1 || !slices.Contains(agg, compiled[0]) {
		t.Errorf("nodes compiling on the resumed attempt: %v, want exactly the replacement in %v", compiled, agg)
	}
}
