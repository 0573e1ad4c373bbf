package ot

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"dstress/internal/group"
	"dstress/internal/network"
)

// IKNP OT extension (Ishai, Kilian, Nissim, Petrank): stretches λ = 128
// base OTs into an unbounded stream of random bit-OTs using a pseudorandom
// generator (AES-CTR) and a fixed-key AES correlation-robust hash. This is
// the optimization the paper credits for GMW's low bandwidth (§5.3,
// citations [41, 46]).
//
// Role reversal is inherent to IKNP: the party who will *receive* the
// extended OTs acts as the *sender* of the base OTs, and vice versa.
//
// Per extension chunk of m OTs:
//
//	receiver: ρ ← {0,1}^m; for each j < λ:
//	            t_j = PRG(k0_j, m),  u_j = t_j ⊕ PRG(k1_j, m) ⊕ ρ   → sender
//	          row i of T gives wρ_i = lsb(H(i, t_i))
//	sender:   q_j = PRG(k_{s_j}, m) ⊕ s_j·u_j; row i of Q gives
//	            w0_i = lsb(H(i, q_i)),  w1_i = lsb(H(i, q_i ⊕ s))
//
// Since q_i = t_i ⊕ ρ_i·s, the receiver's pad equals w0 when ρ_i = 0 and w1
// when ρ_i = 1, which is exactly a random OT.
//
// The base-OT bootstrap is factored out: NewIKNPSender/NewIKNPReceiver run
// it themselves (one public-key handshake per construction), while the
// pairwise Substrate runs it once per node pair and hands per-session
// PRF-derived seeds to newIKNPSenderFromSeeds/newIKNPReceiverFromSeeds.

// Lambda is the IKNP security parameter (number of base OTs).
const Lambda = 128

// extChunk is the minimum extension batch, in OT instances; small requests
// are rounded up and buffered. Must stay a multiple of 64 (the packed data
// plane appends whole words).
const extChunk = 2048

// hashKey is the fixed AES key of the correlation-robust hash. Any fixed
// public constant works; this spells "dstress-iknp-crh".
var hashKey = []byte("dstress-iknp-crh")

// crh is the fixed-key AES correlation-robust hash. It owns its scratch
// blocks: slices of stack arrays escape through the cipher.Block interface,
// so a hash over locals would cost two heap allocations per OT. Like the
// IKNP endpoint that holds it, a crh is not safe for concurrent use.
type crh struct {
	block    cipher.Block
	buf, out [16]byte
}

func newCRH() *crh {
	b, err := aes.NewCipher(hashKey)
	if err != nil {
		panic(err) //dstress:panic-ok — fixed 16-byte key, cannot fail
	}
	return &crh{block: b}
}

// bit hashes a 16-byte row with its index and returns a single pad bit:
// lsb(AES_k(row ⊕ idx) ⊕ row ⊕ idx).
func (h *crh) bit(idx uint64, row []byte) uint8 {
	copy(h.buf[:], row)
	binary.LittleEndian.PutUint64(h.buf[:8], binary.LittleEndian.Uint64(h.buf[:8])^idx)
	h.block.Encrypt(h.out[:], h.buf[:])
	return (h.out[0] ^ h.buf[0]) & 1
}

// prg wraps AES-CTR as a deterministic byte stream.
type prg struct{ stream cipher.Stream }

func newPRG(seed []byte) *prg {
	block, err := aes.NewCipher(seed[:SeedLen])
	if err != nil {
		panic(err) //dstress:panic-ok — SeedLen is a valid AES key size, cannot fail
	}
	iv := make([]byte, aes.BlockSize)
	return &prg{stream: cipher.NewCTR(block, iv)}
}

func (p *prg) next(n int) []byte {
	out := make([]byte, n)
	p.stream.XORKeyStream(out, out)
	return out
}

// transpose8x8 transposes an 8×8 bit matrix packed row-major into a uint64
// (byte r = row r, bit c of that byte = column c) with the classic
// mask-and-shift network.
func transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	x = x ^ t ^ (t << 28)
	return x
}

// transposePacked converts λ columns of m/8 bytes each into m rows of λ/8
// bytes, processing 8×8 bit blocks at a time (m must be a multiple of 8).
func transposePacked(cols [][]byte, m int) []byte {
	const rowBytes = Lambda / 8
	rows := make([]byte, m*rowBytes)
	mBytes := m / 8
	for j0 := 0; j0 < Lambda; j0 += 8 {
		c := cols[j0 : j0+8]
		for bi := 0; bi < mBytes; bi++ {
			x := uint64(c[0][bi]) | uint64(c[1][bi])<<8 | uint64(c[2][bi])<<16 |
				uint64(c[3][bi])<<24 | uint64(c[4][bi])<<32 | uint64(c[5][bi])<<40 |
				uint64(c[6][bi])<<48 | uint64(c[7][bi])<<56
			x = transpose8x8(x)
			base := bi*8*rowBytes + j0/8
			rows[base] = byte(x)
			rows[base+rowBytes] = byte(x >> 8)
			rows[base+2*rowBytes] = byte(x >> 16)
			rows[base+3*rowBytes] = byte(x >> 24)
			rows[base+4*rowBytes] = byte(x >> 32)
			rows[base+5*rowBytes] = byte(x >> 40)
			rows[base+6*rowBytes] = byte(x >> 48)
			rows[base+7*rowBytes] = byte(x >> 56)
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

// IKNPSender produces random pads (w0, w1); it is the *receiver* of the
// base OTs.
type IKNPSender struct {
	ep      network.Transport
	peer    network.NodeID
	tag     string
	sPacked [Lambda / 8]byte // λ base-OT choice bits, packed
	prgs    []*prg           // PRG(k_{s_j})
	crh     *crh
	chunk   int
	ctr     uint64

	buf0, buf1 bitbuf // buffered pads, packed
}

// newIKNPSenderFromSeeds builds the extension over already-established base
// material: sPacked are the λ choice bits, seeds[j] = k_{s_j}.
func newIKNPSenderFromSeeds(ep network.Transport, peer network.NodeID, tag string, sPacked []byte, seeds [][]byte) *IKNPSender {
	s := &IKNPSender{ep: ep, peer: peer, tag: tag, crh: newCRH(), chunk: extChunk}
	copy(s.sPacked[:], sPacked)
	s.prgs = make([]*prg, Lambda)
	for j := range s.prgs {
		s.prgs[j] = newPRG(seeds[j])
	}
	return s
}

// NewIKNPSender bootstraps the extension as the pad-producing side, running
// its own base-OT handshake. It blocks until the peer runs NewIKNPReceiver
// with the same tag.
func NewIKNPSender(ctx context.Context, g group.Group, ep network.Transport, peer network.NodeID, tag string) (*IKNPSender, error) {
	var sb [Lambda / 8]byte
	if err := readEntropy(sb[:]); err != nil {
		return nil, fmt.Errorf("ot: drawing IKNP correlation vector: %w", err)
	}
	seeds, err := BaseOTReceive(ctx, g, ep, peer, network.Tag(tag, "base"), UnpackBits(sb[:], Lambda))
	if err != nil {
		return nil, fmt.Errorf("ot: IKNP base phase: %w", err)
	}
	return newIKNPSenderFromSeeds(ep, peer, tag, sb[:], seeds), nil
}

// RandomPadWords implements RandomOTSender: n random pad pairs as packed
// words with zeroed tails.
func (s *IKNPSender) RandomPadWords(ctx context.Context, n int) ([]uint64, []uint64, error) {
	for s.buf0.len() < n {
		if err := s.extend(ctx); err != nil {
			return nil, nil, err
		}
	}
	return s.buf0.pop(n), s.buf1.pop(n), nil
}

// RandomPads implements RandomOTSender; returned slices are bit-packed
// bytes (legacy layout).
func (s *IKNPSender) RandomPads(ctx context.Context, n int) ([]uint8, []uint8, error) {
	w0, w1, err := s.RandomPadWords(ctx, n)
	if err != nil {
		return nil, nil, err
	}
	return WordsToBytes(w0, n), WordsToBytes(w1, n), nil
}

func (s *IKNPSender) extend(ctx context.Context) error {
	m := s.chunk
	mBytes := m / 8
	blob, err := s.ep.Recv(ctx, s.peer, network.Tag(s.tag, "ext", s.ctr/uint64(m)))
	if err != nil {
		return err
	}
	if len(blob) != Lambda*mBytes {
		return fmt.Errorf("ot: IKNP extension blob has %d bytes, want %d", len(blob), Lambda*mBytes)
	}
	cols := make([][]byte, Lambda)
	for j := 0; j < Lambda; j++ {
		q := s.prgs[j].next(mBytes)
		if (s.sPacked[j/8]>>(j%8))&1 == 1 {
			u := blob[j*mBytes : (j+1)*mBytes]
			for i := range q {
				q[i] ^= u[i]
			}
		}
		cols[j] = q
	}
	rows := transposePacked(cols, m)
	chunk0 := make([]uint64, m/64)
	chunk1 := make([]uint64, m/64)
	var row1 [Lambda / 8]byte
	for i := 0; i < m; i++ {
		row := rows[i*(Lambda/8) : (i+1)*(Lambda/8)]
		for k := range row1 {
			row1[k] = row[k] ^ s.sPacked[k]
		}
		idx := s.ctr + uint64(i)
		chunk0[i>>6] |= uint64(s.crh.bit(idx, row)) << (uint(i) & 63)
		chunk1[i>>6] |= uint64(s.crh.bit(idx, row1[:])) << (uint(i) & 63)
	}
	s.buf0.push(chunk0, m)
	s.buf1.push(chunk1, m)
	s.ctr += uint64(m)
	return nil
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

// IKNPReceiver produces random choices (ρ, wρ); it is the *sender* of the
// base OTs.
type IKNPReceiver struct {
	ep    network.Transport
	peer  network.NodeID
	tag   string
	prg0s []*prg // PRG(k0_j)
	prg1s []*prg // PRG(k1_j)
	crh   *crh
	chunk int
	ctr   uint64

	bufRho, bufW bitbuf
}

// newIKNPReceiverFromSeeds builds the extension over already-established
// base material: the λ seed pairs (k0_j, k1_j).
func newIKNPReceiverFromSeeds(ep network.Transport, peer network.NodeID, tag string, k0, k1 [][]byte) *IKNPReceiver {
	r := &IKNPReceiver{ep: ep, peer: peer, tag: tag, crh: newCRH(), chunk: extChunk}
	r.prg0s = make([]*prg, Lambda)
	r.prg1s = make([]*prg, Lambda)
	for j := 0; j < Lambda; j++ {
		r.prg0s[j] = newPRG(k0[j])
		r.prg1s[j] = newPRG(k1[j])
	}
	return r
}

// NewIKNPReceiver bootstraps the extension as the choice-consuming side,
// running its own base-OT handshake.
func NewIKNPReceiver(ctx context.Context, g group.Group, ep network.Transport, peer network.NodeID, tag string) (*IKNPReceiver, error) {
	k0, k1, err := BaseOTSend(ctx, g, ep, peer, network.Tag(tag, "base"), Lambda)
	if err != nil {
		return nil, fmt.Errorf("ot: IKNP base phase: %w", err)
	}
	return newIKNPReceiverFromSeeds(ep, peer, tag, k0, k1), nil
}

// RandomChoiceWords implements RandomOTReceiver: n random choices and their
// pads as packed words with zeroed tails.
func (r *IKNPReceiver) RandomChoiceWords(ctx context.Context, n int) ([]uint64, []uint64, error) {
	for r.bufRho.len() < n {
		if err := r.extend(ctx); err != nil {
			return nil, nil, err
		}
	}
	return r.bufRho.pop(n), r.bufW.pop(n), nil
}

// RandomChoices implements RandomOTReceiver; returned slices are bit-packed
// bytes (legacy layout).
func (r *IKNPReceiver) RandomChoices(ctx context.Context, n int) ([]uint8, []uint8, error) {
	rho, w, err := r.RandomChoiceWords(ctx, n)
	if err != nil {
		return nil, nil, err
	}
	return WordsToBytes(rho, n), WordsToBytes(w, n), nil
}

func (r *IKNPReceiver) extend(ctx context.Context) error {
	m := r.chunk
	mBytes := m / 8
	rhoPacked := make([]byte, mBytes)
	if err := readEntropy(rhoPacked); err != nil {
		return fmt.Errorf("ot: drawing IKNP choice vector: %w", err)
	}
	blob := make([]byte, 0, Lambda*mBytes)
	cols := make([][]byte, Lambda)
	for j := 0; j < Lambda; j++ {
		t := r.prg0s[j].next(mBytes)
		u := r.prg1s[j].next(mBytes)
		for i := range u {
			u[i] ^= t[i] ^ rhoPacked[i]
		}
		cols[j] = t
		blob = append(blob, u...)
	}
	if err := r.ep.Send(r.peer, network.Tag(r.tag, "ext", r.ctr/uint64(m)), blob); err != nil {
		return err
	}
	rows := transposePacked(cols, m)
	chunkW := make([]uint64, m/64)
	for i := 0; i < m; i++ {
		row := rows[i*(Lambda/8) : (i+1)*(Lambda/8)]
		chunkW[i>>6] |= uint64(r.crh.bit(r.ctr+uint64(i), row)) << (uint(i) & 63)
	}
	r.bufRho.push(BytesToWords(rhoPacked, m), m)
	r.bufW.push(chunkW, m)
	r.ctr += uint64(m)
	return nil
}
