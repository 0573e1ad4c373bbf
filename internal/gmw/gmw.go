// Package gmw implements the Goldreich–Micali–Wigderson protocol for
// semi-honest n-party computation of Boolean circuits over XOR shares.
//
// This is the MPC engine behind every DStress computation step: the members
// of a block hold XOR shares of the vertex state and incoming messages, run
// the update function's circuit through GMW, and end up with XOR shares of
// the new state and outgoing messages, never reconstructing any
// intermediate value (§3.3, §3.6). The paper's prototype uses the GMW
// implementation of Choi et al. under the Wysteria runtime (§5.1); this
// package is a from-scratch Go equivalent.
//
// Protocol recap. Every wire w carries a sharing ⟨w⟩ = (w₁,…,wₙ) with
// w = ⊕ᵢwᵢ:
//
//   - XOR gates are free: each party XORs its shares locally.
//   - The public constant 1 is shared as (1,0,…,0).
//   - AND gates consume multiplication triples (Beaver, CRYPTO '91): shared
//     random bits ⟨a⟩, ⟨b⟩, ⟨c⟩ with c = a∧b. To compute x∧y every party
//     opens d = x⊕a and e = y⊕b by sending (xᵢ⊕aᵢ, yᵢ⊕bᵢ) to every peer,
//     then sets zᵢ = cᵢ ⊕ d∧bᵢ ⊕ e∧aᵢ, and party 0 also XORs in d∧e. The
//     openings reveal nothing: a and b are uniform and each triple is used
//     once.
//   - Triples are input-independent, so Evaluate draws all of a circuit's
//     triples before its first AND level. Party i's share is random aᵢ, bᵢ
//     and cᵢ = aᵢbᵢ ⊕ the pad shares of its cross terms: each aᵢbⱼ with
//     i ≠ j is one 1-of-2 OT in which sender i inputs (r, r⊕aᵢ) for fresh
//     random r and receiver j selects with bⱼ, so the pair obtains an XOR
//     sharing (r, r⊕aᵢbⱼ). All of an evaluation's cross terms for one
//     ordered pair run as one bulk OT batch (ALSZ, CCS '13).
//
// All AND gates of one multiplicative-depth level are opened in a single
// message per ordered party pair (the interaction schedule comes from
// circuit.Rounds), which is what makes the per-step latency of §5.2
// proportional to circuit depth rather than AND count. A level is one
// one-way exchange: every party sends before it receives, and no message
// of a level depends on another message of the same level.
//
// The data plane is packed: wire values live in a []uint64 bitmap, the
// triples are laid out level by level on word boundaries, and an AND level
// gathers its operand bits into packed words once, after which the
// openings and the share arithmetic are 64-bits-at-a-time word operations
// (see internal/ot's packed variants and circuit.PackedRounds).
//
// Collusion resistance matches the paper: with k+1 parties, any k colluders
// miss at least one share of every wire (GMW is secure against n−1
// semi-honest corruptions).
package gmw

import (
	"context"
	"fmt"
	"sync"

	"dstress/internal/circuit"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/obs"
	"dstress/internal/ot"
)

// OTOption selects how the pairwise oblivious transfers are provisioned.
type OTOption interface{ otOption() }

// IKNPOT bootstraps fresh DH base OTs over Group for this one session and
// extends them with IKNP. Deployments that stand up many sessions should
// use SubstrateOT instead, which pays the public-key bootstrap once per
// node pair; IKNPOT remains for self-contained two-party uses and tests.
type IKNPOT struct{ Group group.Group }

// SubstrateOT attaches the session to a deployment-wide pairwise OT
// substrate: the base-OT handshake runs (at most) once per ordered node
// pair per deployment, and this session derives its own extension streams
// from it via a PRF over the session tag. This is the configuration that
// models the paper's prototype faithfully at deployment scale.
type SubstrateOT struct{ Sub *ot.Substrate }

// DealerOT draws correlated randomness from a trusted-party broker
// (offline/online split). Online traffic is identical to the IKNP options
// minus the 16-byte-per-OT extension messages; see internal/ot for the
// argument that this preserves the TP's never-sees-private-data property.
// One broker serves a whole deployment: sessions get independent streams
// derived from the broker's per-pair master seeds by session tag.
type DealerOT struct{ Broker *ot.DealerBroker }

func (IKNPOT) otOption()      {}
func (SubstrateOT) otOption() {}
func (DealerOT) otOption()    {}

// Config describes one party's view of a GMW session.
type Config struct {
	// Parties lists the session members in a globally agreed order.
	Parties []network.NodeID
	// Index is this party's position in Parties.
	Index int
	// Transport is this party's attachment to the messaging layer (the
	// in-process hub endpoint or a tcpnet peer); its ID must equal
	// Parties[Index].
	Transport network.Transport
	// Tag namespaces this session's traffic.
	Tag string
	// OT selects the OT provisioning (SubstrateOT, IKNPOT or DealerOT).
	OT OTOption
}

// Party is one session member. All parties of a session must execute the
// same sequence of Evaluate/Open calls with the same circuits.
type Party struct {
	cfg  Config
	ep   network.Transport
	n    int
	me   int
	send map[int]*ot.BitSender   // ordered pair me→j
	recv map[int]*ot.BitReceiver // ordered pair j→me
	seq  int
}

// NewParty joins the session described by cfg. For IKNPOT the call blocks
// until all peers join (base-OT handshakes), so the n parties must call it
// concurrently; for SubstrateOT it blocks only on pairs whose one-time
// handshake hasn't happened yet. Canceling ctx aborts a handshake stuck on
// an absent peer.
func NewParty(ctx context.Context, cfg Config) (*Party, error) {
	n := len(cfg.Parties)
	if n < 2 {
		return nil, fmt.Errorf("gmw: need at least 2 parties, got %d", n)
	}
	if cfg.Index < 0 || cfg.Index >= n {
		return nil, fmt.Errorf("gmw: index %d out of range", cfg.Index)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gmw: nil transport")
	}
	if cfg.Transport.ID() != cfg.Parties[cfg.Index] {
		return nil, fmt.Errorf("gmw: transport belongs to node %d, party %d is node %d",
			cfg.Transport.ID(), cfg.Index, cfg.Parties[cfg.Index])
	}
	p := &Party{
		cfg:  cfg,
		ep:   cfg.Transport,
		n:    n,
		me:   cfg.Index,
		send: make(map[int]*ot.BitSender),
		recv: make(map[int]*ot.BitReceiver),
	}

	switch opt := cfg.OT.(type) {
	case DealerOT:
		for j := 0; j < n; j++ {
			if j == p.me {
				continue
			}
			// Streams are keyed by global node ids plus the session tag:
			// one deployment-wide broker hands every session of every pair
			// its own derived stream, consumed in lockstep within that
			// session only.
			sTag := network.Tag(cfg.Tag, "ot", p.me, j)
			rTag := network.Tag(cfg.Tag, "ot", j, p.me)
			si, sj := int(cfg.Parties[p.me]), int(cfg.Parties[j])
			ds, err := opt.Broker.Sender(si, sj, cfg.Tag)
			if err != nil {
				return nil, fmt.Errorf("gmw: dealer stream for pair (%d,%d): %w", si, sj, err)
			}
			dr, err := opt.Broker.Receiver(sj, si, cfg.Tag)
			if err != nil {
				return nil, fmt.Errorf("gmw: dealer stream for pair (%d,%d): %w", sj, si, err)
			}
			p.send[j] = ot.NewBitSender(ds, p.ep, cfg.Parties[j], sTag)
			p.recv[j] = ot.NewBitReceiver(dr, p.ep, cfg.Parties[j], rTag)
		}
	case IKNPOT, SubstrateOT:
		// Run all 2(n-1) attachments concurrently; they interleave freely
		// because tags separate the directions.
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		record := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
		mkSender := func(ctx context.Context, peer network.NodeID, tag string) (*ot.IKNPSender, error) {
			if sub, ok := opt.(SubstrateOT); ok {
				return sub.Sub.SenderFor(ctx, peer, tag)
			}
			return ot.NewIKNPSender(ctx, opt.(IKNPOT).Group, p.ep, peer, tag)
		}
		mkReceiver := func(ctx context.Context, peer network.NodeID, tag string) (*ot.IKNPReceiver, error) {
			if sub, ok := opt.(SubstrateOT); ok {
				return sub.Sub.ReceiverFor(ctx, peer, tag)
			}
			return ot.NewIKNPReceiver(ctx, opt.(IKNPOT).Group, p.ep, peer, tag)
		}
		for j := 0; j < n; j++ {
			if j == p.me {
				continue
			}
			j := j
			wg.Add(2)
			go func() {
				defer wg.Done()
				sTag := network.Tag(cfg.Tag, "ot", p.me, j)
				src, err := mkSender(ctx, cfg.Parties[j], sTag)
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				p.send[j] = ot.NewBitSender(src, p.ep, cfg.Parties[j], sTag)
				mu.Unlock()
			}()
			go func() {
				defer wg.Done()
				rTag := network.Tag(cfg.Tag, "ot", j, p.me)
				src, err := mkReceiver(ctx, cfg.Parties[j], rTag)
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				p.recv[j] = ot.NewBitReceiver(src, p.ep, cfg.Parties[j], rTag)
				mu.Unlock()
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("gmw: OT setup: %w", firstErr)
		}
	default:
		return nil, fmt.Errorf("gmw: unknown OT option %T", cfg.OT)
	}
	return p, nil
}

// N returns the number of session parties.
func (p *Party) N() int { return p.n }

// Index returns this party's session index.
func (p *Party) Index() int { return p.me }

// Evaluate runs the circuit on this party's input shares and returns its
// shares of the outputs. The XOR over all parties' inputShares must equal
// the plaintext input bits; likewise for the returned output shares.
func (p *Party) Evaluate(ctx context.Context, c *circuit.Circuit, inputShares []uint8) ([]uint8, error) {
	if len(inputShares) != c.NumInputs {
		return nil, fmt.Errorf("gmw: got %d input shares, want %d", len(inputShares), c.NumInputs)
	}
	evalID := p.seq
	p.seq++

	// Wire values as a packed bitmap; every wire is written exactly once.
	vals := make([]uint64, ot.Words(c.NumWires()))
	// Public constant one: party 0 holds the set share.
	if p.me == 0 {
		ot.SetBit(vals, int(circuit.WireOne), 1)
	}
	for i, b := range inputShares {
		if b > 1 {
			return nil, fmt.Errorf("gmw: input share %d is not a bit", i)
		}
		ot.SetBit(vals, 2+i, uint64(b))
	}

	obs.Add(ctx, "gmw/evals", 1)
	packed := c.PackedRounds()
	var t *triples
	if c.NumAnd > 0 {
		var err error
		if t, err = p.genTriples(ctx, packed, evalID); err != nil {
			return nil, err
		}
	}
	for r, round := range c.Rounds {
		if len(round.And) > 0 {
			obs.Add(ctx, "gmw/and_rounds", 1)
			obs.Add(ctx, "gmw/and_gates", int64(len(round.And)))
			if err := p.andRound(ctx, vals, &packed[r], t, evalID, r); err != nil {
				return nil, err
			}
		}
		for _, gi := range round.Local {
			g := c.Gates[gi]
			ot.SetBit(vals, 2+c.NumInputs+gi, ot.Bit(vals, int(g.A))^ot.Bit(vals, int(g.B)))
		}
	}

	out := make([]uint8, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = uint8(ot.Bit(vals, int(w)))
	}
	return out, nil
}

// triples holds this party's shares of one evaluation's multiplication
// triples, laid out level by level: the triples of an AND level of width g
// start at that level's word offset and fill ot.Words(g) words, tail bits
// zero. Levels are consumed in order, so next is the current offset.
type triples struct {
	a, b, c []uint64
	next    int
}

// genTriples draws this party's shares of the triples for every AND gate
// of the packed schedule, with ⊕c = (⊕a)∧(⊕b) across the session. The
// cross terms come from one bulk OT batch per ordered party pair, run
// concurrently: each batch blocks on its peer's half, which the peer
// serves from its own goroutine.
func (p *Party) genTriples(ctx context.Context, packed []circuit.PackedRound, evalID int) (*triples, error) {
	n := 0
	for i := range packed {
		n += len(packed[i].Out)
	}
	a, err := ot.RandomWords(n)
	if err != nil {
		return nil, fmt.Errorf("gmw: eval %d triple draw: %w", evalID, err)
	}
	b, err := ot.RandomWords(n)
	if err != nil {
		return nil, fmt.Errorf("gmw: eval %d triple draw: %w", evalID, err)
	}

	sent := make([][]uint64, p.n) // my pads r, per sender direction
	got := make([][]uint64, p.n)  // received cross-term shares, per receiver direction
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for j := 0; j < p.n; j++ {
		if j == p.me {
			continue
		}
		j := j
		wg.Add(2)
		// Sender direction me→j: contribute r, peer learns r ⊕ a·(their b).
		go func() {
			defer wg.Done()
			r, err := ot.RandomWords(n)
			if err != nil {
				record(fmt.Errorf("gmw: eval %d pad draw for %d: %w", evalID, j, err))
				return
			}
			m1 := make([]uint64, len(r))
			for w := range m1 {
				m1[w] = r[w] ^ a[w]
			}
			if err := p.send[j].SendPacked(ctx, r, m1, n); err != nil {
				record(fmt.Errorf("gmw: eval %d triples to %d: %w", evalID, j, err))
				return
			}
			sent[j] = r
		}()
		// Receiver direction j→me: select with my b shares.
		go func() {
			defer wg.Done()
			g, err := p.recv[j].ReceivePacked(ctx, b, n)
			if err != nil {
				record(fmt.Errorf("gmw: eval %d triples from %d: %w", evalID, j, err))
				return
			}
			got[j] = g
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	c := make([]uint64, len(a))
	for w := range c {
		c[w] = a[w] & b[w] // local diagonal term aᵢbᵢ
	}
	for j := 0; j < p.n; j++ {
		if sent[j] != nil {
			ot.XorInto(c, sent[j])
		}
		if got[j] != nil {
			ot.XorInto(c, got[j])
		}
	}

	// Re-lay the contiguous triples out level by level on word boundaries.
	words := 0
	for i := range packed {
		words += ot.Words(len(packed[i].Out))
	}
	t := &triples{a: make([]uint64, words), b: make([]uint64, words), c: make([]uint64, words)}
	off, pos := 0, 0
	for i := range packed {
		g := len(packed[i].Out)
		extractBits(t.a[off:], a, pos, g)
		extractBits(t.b[off:], b, pos, g)
		extractBits(t.c[off:], c, pos, g)
		off += ot.Words(g)
		pos += g
	}
	return t, nil
}

// extractBits writes bits [pos, pos+n) of src into dst starting at bit 0,
// leaving the bits of dst's last word beyond n zero. dst must be zeroed.
func extractBits(dst, src []uint64, pos, n int) {
	base, sh := pos>>6, uint(pos&63)
	for w := 0; w < ot.Words(n); w++ {
		v := src[base+w] >> sh
		if sh != 0 && base+w+1 < len(src) {
			v |= src[base+w+1] << (64 - sh)
		}
		dst[w] = v
	}
	ot.MaskTail(dst[:ot.Words(n)], n)
}

// andRound evaluates one level of AND gates with one message per ordered
// party pair: this party opens its masked operands x⊕a ‖ y⊕b to every
// peer, folds the peers' openings into d = x⊕a and e = y⊕b, and derives its
// output shares from the next triples. Sends never block, so the level
// needs no goroutines.
func (p *Party) andRound(ctx context.Context, vals []uint64, pr *circuit.PackedRound, t *triples, evalID, round int) error {
	nG := len(pr.Out)
	nW := ot.Words(nG)
	a, b, c := t.a[t.next:t.next+nW], t.b[t.next:t.next+nW], t.c[t.next:t.next+nW]
	t.next += nW

	// de holds my masked operands x⊕a then y⊕b; it becomes the opened d, e.
	de := make([]uint64, 2*nW)
	d, e := de[:nW], de[nW:]
	for k := range pr.Out {
		sh := uint(k) & 63
		d[k>>6] |= ot.Bit(vals, int(pr.A[k])) << sh
		e[k>>6] |= ot.Bit(vals, int(pr.B[k])) << sh
	}
	ot.XorInto(d, a)
	ot.XorInto(e, b)

	nb := (nG + 7) / 8
	payload := append(ot.WordsToBytes(d, nG), ot.WordsToBytes(e, nG)...)
	tag := network.Tag(p.cfg.Tag, "and", evalID, round)
	for j := 0; j < p.n; j++ {
		if j == p.me {
			continue
		}
		if err := p.ep.Send(p.cfg.Parties[j], tag, payload); err != nil {
			return fmt.Errorf("gmw: eval %d round %d open to %d: %w", evalID, round, j, err)
		}
	}
	for j := 0; j < p.n; j++ {
		if j == p.me {
			continue
		}
		msg, err := p.ep.Recv(ctx, p.cfg.Parties[j], tag)
		if err != nil {
			return fmt.Errorf("gmw: eval %d round %d open from %d: %w", evalID, round, j, err)
		}
		if len(msg) != 2*nb {
			return fmt.Errorf("gmw: eval %d round %d: opening from %d has %d bytes, want %d",
				evalID, round, j, len(msg), 2*nb)
		}
		ot.XorInto(d, ot.BytesToWords(msg[:nb], nG))
		ot.XorInto(e, ot.BytesToWords(msg[nb:], nG))
	}

	// The triple is spent: its c words become this party's output shares.
	for w := range c {
		z := c[w] ^ d[w]&b[w] ^ e[w]&a[w]
		if p.me == 0 {
			z ^= d[w] & e[w]
		}
		c[w] = z
	}
	for k, w := range pr.Out {
		ot.SetBit(vals, int(w), ot.Bit(c, k))
	}
	return nil
}

// Open reconstructs shared bits by broadcasting shares to all session
// members; every party learns the plaintext. DStress only ever opens the
// final noised aggregate (§3.6); intermediate wires stay shared.
func (p *Party) Open(ctx context.Context, shares []uint8) ([]uint8, error) {
	seq := p.seq
	p.seq++
	tag := network.Tag(p.cfg.Tag, "open", seq)
	packed := ot.PackBits(shares)
	for j := 0; j < p.n; j++ {
		if j != p.me {
			if err := p.ep.Send(p.cfg.Parties[j], tag, packed); err != nil {
				return nil, fmt.Errorf("gmw: open: %w", err)
			}
		}
	}
	out := make([]uint8, len(shares))
	copy(out, shares)
	for j := 0; j < p.n; j++ {
		if j == p.me {
			continue
		}
		data, err := p.ep.Recv(ctx, p.cfg.Parties[j], tag)
		if err != nil {
			return nil, fmt.Errorf("gmw: open: %w", err)
		}
		theirs := ot.UnpackBits(data, len(shares))
		for i := range out {
			out[i] ^= theirs[i]
		}
	}
	return out, nil
}
