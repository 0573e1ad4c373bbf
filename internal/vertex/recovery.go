package vertex

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"
	"slices"

	"dstress/internal/network"
	"dstress/internal/trustedparty"
)

// Checkpoint is one node's sealed share snapshot at one phase barrier of
// one query attempt. Barrier b is the start of iteration b: 0 after
// initialization, b ≥ 1 after communicate(b−1). Whoever stores it (the
// cluster coordinator, the simulated fleet) holds no recovery key: the
// blob is opaque and only ever handed to the replacement of a dead node.
type Checkpoint struct {
	Seq     int
	Attempt int
	Barrier int
	Blob    []byte
}

// archiveCap bounds how many per-query archives a standing node retains.
const archiveCap = 8

// queryArchive is one query's recoverable state on one node.
type queryArchive struct {
	snaps map[int]*Snapshot
	// adoptBlob is the dead node's sealed snapshot at the resume barrier,
	// handed to the replacement with the re-blocking.
	adoptBlob []byte
}

// archiveQuery opens a query's archive — the local home of its barrier
// snapshots — evicting the oldest archive past archiveCap.
func (p *Participant) archiveQuery(seq int) {
	p.archMu.Lock()
	defer p.archMu.Unlock()
	if p.archives[seq] != nil {
		return
	}
	p.archives[seq] = &queryArchive{snaps: make(map[int]*Snapshot)}
	p.archOrder = append(p.archOrder, seq)
	if len(p.archOrder) > archiveCap {
		delete(p.archives, p.archOrder[0])
		p.archOrder = p.archOrder[1:]
	}
}

// replayedFrom counts the barriers this node re-executes when resuming at
// b: from b through the latest barrier its earlier attempt had reached.
func (p *Participant) replayedFrom(seq, b int) int {
	p.archMu.Lock()
	defer p.archMu.Unlock()
	latest := b
	if arch := p.archives[seq]; arch != nil {
		for bb := range arch.snaps {
			latest = max(latest, bb)
		}
	}
	return latest - b + 1
}

// checkpointBarrier externalizes the run's share registers at barrier b:
// the snapshot is archived locally and its sealed encoding is shipped.
// Shipping is best-effort — a lost blob only narrows which barrier a
// future recovery can resume from.
func (p *Participant) checkpointBarrier(run *nodeRun, attempt, b int) {
	if !p.recoverOn {
		return
	}
	snap := &Snapshot{
		Barrier: b,
		State:   make(map[int]uint64, len(p.memberVertices)),
		Msgs:    make(map[int][]uint64, len(p.memberVertices)),
	}
	for _, v := range p.memberVertices {
		snap.State[v] = run.stateShare[v]
		snap.Msgs[v] = append([]uint64(nil), run.msgShare[v]...)
	}
	p.archMu.Lock()
	if arch := p.archives[run.seq]; arch != nil {
		arch.snaps[b] = snap
	}
	p.archMu.Unlock()
	blob, err := EncryptSnapshot(run.recKey, EncodeSnapshot(snap))
	if err != nil {
		slog.Warn("vertex: checkpoint encrypt failed", "node", p.id, "query", run.seq, "error", err)
		return
	}
	if p.ship != nil {
		p.ship(Checkpoint{Seq: run.seq, Attempt: attempt, Barrier: b, Blob: blob})
	}
}

// restoreRun re-enters the lock-step schedule at barrier b: load this
// node's own archived snapshot, merge the dead owner's decrypted blob for
// freshly adopted vertices, re-randomize every changed block, and
// re-checkpoint the merged state so an even later recovery can still
// resume from this barrier.
func (p *Participant) restoreRun(ctx context.Context, run *nodeRun, attempt, b int) error {
	p.archMu.Lock()
	arch := p.archives[run.seq]
	var snap *Snapshot
	var blob []byte
	if arch != nil {
		snap = arch.snaps[b]
		blob = arch.adoptBlob
	}
	p.archMu.Unlock()
	if arch == nil {
		return fmt.Errorf("vertex: query %d has no archive to resume from", run.seq)
	}
	var dead *Snapshot
	for _, v := range p.memberVertices {
		if snap != nil {
			if w, ok := snap.State[v]; ok {
				run.stateShare[v] = w
				run.msgShare[v] = append([]uint64(nil), snap.Msgs[v]...)
				continue
			}
		}
		if dead == nil {
			if blob == nil {
				return fmt.Errorf("vertex: no checkpoint covers vertex %d at barrier %d of query %d", v, b, run.seq)
			}
			plain, err := DecryptSnapshot(run.recKey, blob)
			if err != nil {
				return fmt.Errorf("vertex: opening dead node's checkpoint for query %d: %w", run.seq, err)
			}
			if dead, err = DecodeSnapshot(plain); err != nil {
				return err
			}
			if dead.Barrier != b {
				return fmt.Errorf("vertex: dead node's checkpoint is at barrier %d, resume wants %d", dead.Barrier, b)
			}
		}
		w, ok := dead.State[v]
		if !ok {
			return fmt.Errorf("vertex: no checkpoint covers vertex %d at barrier %d of query %d", v, b, run.seq)
		}
		run.stateShare[v] = w
		run.msgShare[v] = append([]uint64(nil), dead.Msgs[v]...)
	}
	if err := p.rerandomize(ctx, run); err != nil {
		return err
	}
	p.checkpointBarrier(run, attempt, b)
	return nil
}

// rerandomize re-shares every changed block's registers among its new
// membership (source == destination): the replacement's restored shares
// came out of a blob someone else stored, so without a fresh reshare that
// blob would stay a live share of the block. The XOR opens unchanged;
// every individual share is fresh. All sends complete before any receive
// so no two members wait on each other.
func (p *Participant) rerandomize(ctx context.Context, run *nodeRun) error {
	g, prog := p.d.graph, p.d.prog
	for _, v := range p.recChanged {
		mi, ok := p.memberIdx[v]
		if !ok {
			continue
		}
		members := p.setup.Assignment.Blocks[g.NodeOf(v)]
		if err := p.reshareSend(run.stateShare[v], prog.StateBits, mi, members, network.Tag(run.proto, "recover", v, "st")); err != nil {
			return err
		}
		for d := 0; d < g.D; d++ {
			if err := p.reshareSend(run.msgShare[v][d], prog.MsgBits, mi, members, network.Tag(run.proto, "recover", v, "m", d)); err != nil {
				return err
			}
		}
	}
	for _, v := range p.recChanged {
		if _, ok := p.memberIdx[v]; !ok {
			continue
		}
		members := p.setup.Assignment.Blocks[g.NodeOf(v)]
		st, err := p.reshareRecv(ctx, members, network.Tag(run.proto, "recover", v, "st"))
		if err != nil {
			return err
		}
		run.stateShare[v] = st
		for d := 0; d < g.D; d++ {
			m, err := p.reshareRecv(ctx, members, network.Tag(run.proto, "recover", v, "m", d))
			if err != nil {
				return err
			}
			run.msgShare[v][d] = m
		}
	}
	return nil
}

// Reblocking is the trusted party's answer to one node death: Repl takes
// Dead's owner slots under the re-signed Setup. The replacement also
// inherits, per adopted vertex, the registrant's neighbor keys (the
// re-issued certificates are randomized under them, so adjusting needs
// them) and the owner inputs.
type Reblocking struct {
	Dead, Repl    network.NodeID
	Setup         *trustedparty.SetupResult
	AdoptedKeys   map[int][]*big.Int
	AdoptedInputs map[int]OwnerInput
}

// PlanReblock decides a recovery around dead. The replacement is the
// lowest live id that shares no block with the casualty — it would
// otherwise hold two shares of one secret — and the trusted party
// re-blocks and re-issues certificates over the registrations. Adopted
// vertices are the ones whose acting owner was the casualty; chained
// deaths resolve because each vertex keeps pointing at its registrant via
// NodeOf. g supplies the owner inputs (the caller is the party that holds
// them). live must be sorted ascending.
func PlanReblock(tp *trustedparty.TrustedParty, setup *trustedparty.SetupResult, regs []trustedparty.NodeRegistration, g *Graph, live []network.NodeID, dead network.NodeID) (*Reblocking, error) {
	var repl network.NodeID
	for _, id := range live {
		if id != dead && trustedparty.ReplacementOK(setup.Assignment, dead, id) {
			repl = id
			break
		}
	}
	if repl == 0 {
		return nil, fmt.Errorf("replacing dead node %d: %w", dead, trustedparty.ErrNoReplacement)
	}
	next, err := tp.Reblock(setup, regs, dead, repl)
	if err != nil {
		return nil, fmt.Errorf("re-blocking around node %d: %w", dead, err)
	}
	regByID := make(map[network.NodeID]trustedparty.NodeRegistration, len(regs))
	for _, r := range regs {
		regByID[r.ID] = r
	}
	rb := &Reblocking{
		Dead: dead, Repl: repl, Setup: next,
		AdoptedKeys:   make(map[int][]*big.Int),
		AdoptedInputs: make(map[int]OwnerInput),
	}
	for v := 0; v < g.N(); v++ {
		if setup.Assignment.Blocks[g.NodeOf(v)][0] != dead {
			continue
		}
		rb.AdoptedKeys[v] = regByID[g.NodeOf(v)].NeighborKeys
		rb.AdoptedInputs[v] = OwnerInput{InitState: g.InitState[v], Priv: g.Priv[v]}
	}
	return rb, nil
}

// ApplyRecover commits a re-blocking to this node: the new assignment and
// memberships, the blocks to re-randomize on resume and — on the
// replacement — the adopted neighbor keys, owner inputs and the dead
// node's sealed snapshots (deadBlobs, by query). It must run while no Run
// is in flight on the participant; resumed runs start after it returns.
// rb.Setup must already be verified.
func (p *Participant) ApplyRecover(rb *Reblocking, deadBlobs map[int][]byte) error {
	g := p.d.graph
	// Changed blocks — the ones the dead node sat in — read off the
	// assignment being replaced, before it is swapped out.
	var changed []int
	for v := 0; v < g.N(); v++ {
		if slices.Contains(p.setup.Assignment.Blocks[g.NodeOf(v)], rb.Dead) {
			changed = append(changed, v)
		}
	}
	if err := p.adopt(rb.Setup); err != nil {
		return err
	}
	p.recChanged = changed
	if p.id != rb.Repl {
		return nil
	}
	for v, nks := range rb.AdoptedKeys {
		p.adoptedNK[v] = nks
	}
	for v, in := range rb.AdoptedInputs {
		p.adoptedIn[v] = in
	}
	p.archMu.Lock()
	for seq, blob := range deadBlobs {
		if arch := p.archives[seq]; arch != nil {
			arch.adoptBlob = blob
		}
	}
	p.archMu.Unlock()
	return nil
}

// MinBarrier picks a query's resume barrier from the checkpoints the fleet
// shipped (node → barrier → blob): the latest barrier every fleet member —
// the casualty included, whose blob the replacement restores from — has
// shipped, or −1 when some member never checkpointed the query (it then
// restarts from initialization).
func MinBarrier(shipped map[network.NodeID]map[int][]byte, fleet []network.NodeID) int {
	b := -1
	for i, id := range fleet {
		latest := -1
		for bb := range shipped[id] {
			latest = max(latest, bb)
		}
		if i == 0 || latest < b {
			b = latest
		}
	}
	return b
}
