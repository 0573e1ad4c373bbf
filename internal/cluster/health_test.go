package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"dstress/internal/network"
)

// TestStallWatchdog drives the watchdog on fabricated heartbeats: a query
// whose slowest node stops advancing trips the stalled flag after the
// window, and a later advance clears it. No phase-string ordering is
// involved — only per-node step counters and their change times.
func TestStallWatchdog(t *testing.T) {
	const window = time.Second
	h := newFleetHealth([]network.NodeID{1, 2})
	h.watch(1, nil)
	base := time.Now()
	h.mu.Lock()
	h.starts[1] = base // pin the dispatch time so the schedule is exact
	h.mu.Unlock()

	beat := func(id network.NodeID, steps int64, phase string, at time.Time) {
		h.observeBeat(id, &beatMsg{
			ID:       id,
			Progress: []queryProgress{{Seq: 1, Phase: phase, Steps: steps}},
		}, at)
	}

	// Both nodes enter init right away.
	beat(1, 1, "phase/init", base)
	beat(2, 1, "phase/init", base)

	// Before the window has elapsed since dispatch, nothing can stall.
	h.checkStalls(base.Add(window/2), window)
	if got := h.snapshot(base.Add(window / 2)).Stalled; len(got) != 0 {
		t.Fatalf("query flagged before the window elapsed: %v", got)
	}

	// Node 1 keeps advancing; node 2 freezes at step 1.
	beat(1, 5, "iter/3/compute", base.Add(window))
	h.checkStalls(base.Add(2*window+time.Millisecond), window)
	snap := h.snapshot(base.Add(2 * window))
	if len(snap.Stalled) != 1 || snap.Stalled[0] != 1 {
		t.Fatalf("stalled = %v, want [1]: the slowest node has not advanced in 2 windows", snap.Stalled)
	}
	if len(snap.InFlight) != 1 || snap.InFlight[0] != 1 {
		t.Fatalf("in-flight = %v, want [1]", snap.InFlight)
	}

	// Node 2 advances: the flag clears on the next tick.
	beat(2, 2, "iter/0/compute", base.Add(2*window+2*time.Millisecond))
	h.checkStalls(base.Add(2*window+3*time.Millisecond), window)
	if got := h.snapshot(base.Add(2 * window)).Stalled; len(got) != 0 {
		t.Fatalf("flag not cleared after the slow node advanced: %v", got)
	}

	// Retiring the query drops all of its state.
	h.unwatch(1)
	snap = h.snapshot(base.Add(3 * window))
	if len(snap.InFlight) != 0 || len(snap.Stalled) != 0 {
		t.Fatalf("unwatch left state behind: inflight=%v stalled=%v", snap.InFlight, snap.Stalled)
	}
}

// TestWatchdogUnstartedNode pins the missing-node rule: a node that has
// never reported the query counts as unstarted, so the query stalls once
// the window passes even though the other nodes are advancing.
func TestWatchdogUnstartedNode(t *testing.T) {
	const window = time.Second
	h := newFleetHealth([]network.NodeID{1, 2})
	h.watch(1, nil)
	base := time.Now()
	h.mu.Lock()
	h.starts[1] = base
	h.mu.Unlock()

	// Only node 1 ever reports.
	h.observeBeat(1, &beatMsg{ID: 1, Progress: []queryProgress{{Seq: 1, Phase: "phase/init", Steps: 3}}}, base.Add(window))
	h.checkStalls(base.Add(2*window), window)
	if got := h.snapshot(base.Add(2 * window)).Stalled; len(got) != 1 {
		t.Fatalf("stalled = %v, want the query flagged: node 2 never started it", got)
	}
}

// TestHeartbeatLoopback runs a real loopback cluster with a fast heartbeat
// and checks the health plane end to end: every node beats, clock offsets
// converge (Synced), runtime stats arrive, and the query summary carries a
// clock row per node so the span merge can rebase timelines.
func TestHeartbeatLoopback(t *testing.T) {
	cfg := ConfigWire{Group: "modp256", K: 1, Alpha: 0.5}
	sc, exact := enChainScenario(t, 4, cfg, 6)
	sc.Heartbeat = 20 * time.Millisecond
	lb, err := OpenLoopback(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	sum, err := lb.Run(context.Background(), Query{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Result != exact {
		t.Errorf("cluster result %d != reference %d", sum.Result, exact)
	}

	// Give the fleet a few more beats while idle.
	time.Sleep(100 * time.Millisecond)
	fh := lb.Health()
	if len(fh.Nodes) != 4 {
		t.Fatalf("health has %d nodes, want 4", len(fh.Nodes))
	}
	for _, n := range fh.Nodes {
		if n.Beats == 0 {
			t.Errorf("node %d never beat", n.Node)
		}
		if !n.Synced {
			t.Errorf("node %d clock never synced", n.Node)
		}
		if n.RTT <= 0 {
			t.Errorf("node %d has no RTT estimate", n.Node)
		}
		if n.Goroutines <= 0 || n.HeapBytes == 0 {
			t.Errorf("node %d runtime stats missing: goroutines=%d heap=%d",
				n.Node, n.Goroutines, n.HeapBytes)
		}
		if n.BeatAge > time.Second {
			t.Errorf("node %d beat age %v with a 20ms heartbeat", n.Node, n.BeatAge)
		}
	}
	if len(fh.InFlight) != 0 {
		t.Errorf("idle fleet reports in-flight queries: %v", fh.InFlight)
	}

	if len(sum.Clock) != 4 {
		t.Fatalf("summary has %d clock rows, want 4", len(sum.Clock))
	}
	for id, ci := range sum.Clock {
		if !ci.Synced {
			t.Errorf("node %d clock row not synced", id)
		}
		if ci.EpochUnixNS == 0 {
			t.Errorf("node %d clock row has no span epoch", id)
		}
		// The merge shifts by nodeEpoch − offset − driverEpoch; an offset
		// bigger than the run itself would mean the estimator diverged on
		// loopback, where true offset ≈ 0 and RTT is microseconds.
		if off := ci.Offset; off > time.Second || off < -time.Second {
			t.Errorf("node %d loopback clock offset %v is implausible", id, off)
		}
	}
}

// TestSilentSinceRanksCasualtyFirst pins the post-mortem's silent set: a
// node is silent until it echoes a ping sent at or after the probe (a late
// beat answering an earlier ping does not count), and under load a slow
// survivor is silent too, so the set is ranked rather than taken in id
// order — a failed control connection first, then the oldest answer.
func TestSilentSinceRanksCasualtyFirst(t *testing.T) {
	h := newFleetHealth([]network.NodeID{1, 2, 3, 4})
	base := time.Now()
	probe := base.Add(-5 * time.Millisecond)
	// Nodes 1-3 answer pings sent before the probe; node 2's beat arrives
	// after it. Only node 4 answers the probe's own ping.
	for id, ago := range map[network.NodeID]time.Duration{1: 10, 2: 20, 3: 30} {
		h.observeBeat(id, &beatMsg{ID: id, T1: base.Add(-ago * time.Millisecond).UnixNano()}, base.Add(-ago*time.Millisecond))
	}
	h.observeBeat(2, &beatMsg{ID: 2, T1: base.Add(-6 * time.Millisecond).UnixNano()}, base)
	h.observeBeat(4, &beatMsg{ID: 4, T1: probe.UnixNano()}, base)

	dead, lost := h.silentSince(probe)
	if lost || len(dead) != 3 || dead[0] != 3 || dead[1] != 1 || dead[2] != 2 {
		t.Fatalf("before any connection loss: silent %v (lost %v), want [3 1 2] by oldest answer", dead, lost)
	}
	h.observeConnLoss(2, base)
	h.observeConnLoss(3, base.Add(time.Second))
	h.observeConnLoss(2, base.Add(2*time.Second)) // only the first loss counts
	dead, lost = h.silentSince(probe)
	if !lost || len(dead) != 3 || dead[0] != 2 || dead[1] != 3 || dead[2] != 1 {
		t.Fatalf("after nodes 2 then 3 lost their connections: silent %v (lost %v), want [2 3 1]", dead, lost)
	}
}

// TestNodeKillProducesQueryError kills one node mid-query on a cluster with
// a fast heartbeat and requires the health plane's post-mortem: the error
// is a *QueryError naming the victim (even though a survivor's failure may
// reach the coordinator first), its last reported phase is non-empty, and
// the flight dump renders as valid JSON identifying the same node.
func TestNodeKillProducesQueryError(t *testing.T) {
	cfg := ConfigWire{Group: "modp256", K: 1, Alpha: 0.5}
	sc, _ := enChainScenario(t, 4, cfg, 8)
	sc.Heartbeat = 25 * time.Millisecond
	co, err := NewCoordinator("127.0.0.1:0", sc)
	if err != nil {
		t.Fatal(err)
	}

	const victim = network.NodeID(2)
	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	exits := make(chan error, 4)
	for id := network.NodeID(1); id <= 4; id++ {
		id := id
		ctx := context.Background()
		if id == victim {
			ctx = victimCtx
		}
		go func() {
			_, err := RunNode(ctx, NodeOptions{
				ID: id, CoordAddr: co.Addr(), ListenAddr: "127.0.0.1:0",
			})
			exits <- err
		}()
	}

	sess, err := co.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	go func() {
		time.Sleep(500 * time.Millisecond)
		kill()
	}()

	runCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, runErr := sess.Run(runCtx, Query{Iterations: 8})
	if runErr == nil {
		t.Fatal("run succeeded despite a killed node")
	}
	if runCtx.Err() != nil {
		t.Fatal("run only failed because the test deadline expired")
	}
	t.Logf("run failed: %v", runErr)

	var qe *QueryError
	if !errors.As(runErr, &qe) {
		t.Fatalf("error is not a *QueryError: %v", runErr)
	}
	if qe.Node != victim {
		t.Errorf("failure attributed to node %d, want victim %d", qe.Node, victim)
	}
	if qe.LastPhase == "" {
		t.Error("post-mortem has no last phase for the victim")
	}
	if qe.Seq == 0 {
		t.Error("post-mortem has no query seq")
	}

	data, err := qe.Dump()
	if err != nil {
		t.Fatalf("rendering flight dump: %v", err)
	}
	var dump struct {
		Query     int    `json:"query"`
		Node      int    `json:"node"`
		LastPhase string `json:"last_phase"`
		Events    []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v\n%s", err, data)
	}
	if dump.Node != int(victim) {
		t.Errorf("flight dump names node %d, want %d", dump.Node, victim)
	}
	if dump.LastPhase == "" {
		t.Error("flight dump has no last phase")
	}
	if len(dump.Events) == 0 {
		t.Error("flight dump carries no flight-recorder events")
	}

	for i := 0; i < 4; i++ {
		select {
		case <-exits:
		case <-time.After(30 * time.Second):
			t.Fatal("a node is still blocked after the fleet died")
		}
	}
}
