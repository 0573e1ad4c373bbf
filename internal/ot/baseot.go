package ot

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"dstress/internal/group"
	"dstress/internal/network"
)

// Base OT: the "Simplest OT" of Chou and Orlandi (Latincrypt 2015), secure
// against honest-but-curious adversaries (DStress's threat model, §3.2).
// Each instance yields the base-OT sender two random 16-byte seeds
// (k0, k1) and the base-OT receiver its chosen seed k_c. The IKNP extension
// consumes Lambda = 128 such instances per party-pair direction.
//
// Protocol over a prime-order group with generator g, for instances j:
//
//	sender:   a ← Z_q,  A = g^a, once                    → receiver
//	receiver: b_j ← Z_q, B_j = g^{b_j}·A^{c_j}          → sender
//	sender:   P_j = B_j^a,  k0 = KDF(P_j), k1 = KDF(P_j·T⁻¹) with T = A^a
//	receiver: k_c = KDF(A^{b_j})
//
// If c = 0, P_j = g^{a·b_j} = A^{b_j}, so k0 matches. If c = 1,
// P_j·T⁻¹ = (B_j/A)^a = g^{a·b_j} matches k1, and k0 would need
// g^{a·(b_j+a)}, which is computational Diffie–Hellman for the receiver.
// The sender learns nothing about c because B_j is uniform either way. The
// KDF binds (j, branch, A, B_j, point).
//
// Cost per instance: the sender pays one variable-base exponentiation and
// one group operation (A and T⁻¹ are computed once per batch), the receiver
// one fixed-base and one variable-base exponentiation; the receiver decodes
// A once per batch. The exchange is two messages: A, then all B_j. The
// receiver sends the B_j before its variable-base exponentiations, so they
// run alongside the sender's instead of ahead of them.

// SeedLen is the byte length of the transferred seeds (AES-128 keys).
const SeedLen = 16

// BaseOTSend runs `count` base-OT instances as the sender, returning the
// seed pairs.
func BaseOTSend(ctx context.Context, g group.Group, ep network.Transport, peer network.NodeID, tag string, count int) (k0, k1 [][]byte, err error) {
	a := group.MustRandomScalar(g)
	A := g.ScalarBaseMul(a)
	encA := g.Encode(A)
	if err := ep.Send(peer, network.Tag(tag, "A"), encA); err != nil {
		return nil, nil, err
	}
	tInv := g.Inv(g.ScalarMul(A, a))

	blobB, err := ep.Recv(ctx, peer, network.Tag(tag, "B"))
	if err != nil {
		return nil, nil, err
	}
	k0 = make([][]byte, count)
	k1 = make([][]byte, count)
	for j := 0; j < count; j++ {
		var encB []byte
		encB, blobB, err = splitLenPrefixed(blobB)
		if err != nil {
			return nil, nil, fmt.Errorf("ot: base OT instance %d: %w", j, err)
		}
		B, err := g.Decode(encB)
		if err != nil {
			return nil, nil, fmt.Errorf("ot: base OT instance %d: %w", j, err)
		}
		P := g.ScalarMul(B, a)
		k0[j] = kdf(g, j, 0, encA, encB, P)
		k1[j] = kdf(g, j, 1, encA, encB, g.Op(P, tInv))
	}
	if len(blobB) != 0 {
		return nil, nil, fmt.Errorf("ot: base OT: %d trailing bytes after %d instances", len(blobB), count)
	}
	return k0, k1, nil
}

// BaseOTReceive runs `count` base-OT instances as the receiver with the
// given choice bits, returning the chosen seeds.
func BaseOTReceive(ctx context.Context, g group.Group, ep network.Transport, peer network.NodeID, tag string, choices []uint8) ([][]byte, error) {
	encA, err := ep.Recv(ctx, peer, network.Tag(tag, "A"))
	if err != nil {
		return nil, err
	}
	A, err := g.Decode(encA)
	if err != nil {
		return nil, fmt.Errorf("ot: base OT sender message: %w", err)
	}
	// A = identity would make A^b = identity for every instance, so the
	// sender could compute both seeds.
	if g.Equal(A, g.Identity()) {
		return nil, errors.New("ot: base OT sender message is the identity element")
	}
	bs := make([]*big.Int, len(choices))
	encBs := make([][]byte, len(choices))
	var blobB []byte
	for j, c := range choices {
		bs[j] = group.MustRandomScalar(g)
		B := g.ScalarBaseMul(bs[j])
		if c&1 == 1 {
			B = g.Op(A, B)
		}
		encBs[j] = g.Encode(B)
		blobB = appendLenPrefixed(blobB, encBs[j])
	}
	if err := ep.Send(peer, network.Tag(tag, "B"), blobB); err != nil {
		return nil, err
	}
	seeds := make([][]byte, len(choices))
	for j, c := range choices {
		seeds[j] = kdf(g, j, int(c&1), encA, encBs[j], g.ScalarMul(A, bs[j]))
	}
	return seeds, nil
}

// kdf hashes a group element into a seed, domain-separated by instance
// index and branch and bound to the instance's transcript (A, B_j).
func kdf(g group.Group, instance, branch int, encA, encB []byte, e group.Element) []byte {
	buf := []byte{byte(instance), byte(instance >> 8), byte(branch)}
	buf = appendLenPrefixed(buf, encA)
	buf = appendLenPrefixed(buf, encB)
	buf = appendLenPrefixed(buf, g.Encode(e))
	sum := sha256.Sum256(buf)
	return sum[:SeedLen]
}

func appendLenPrefixed(dst, chunk []byte) []byte {
	if len(chunk) > 0xffff {
		panic("ot: chunk too large for length prefix")
	}
	dst = append(dst, byte(len(chunk)), byte(len(chunk)>>8))
	return append(dst, chunk...)
}

func splitLenPrefixed(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("truncated length prefix")
	}
	n := int(b[0]) | int(b[1])<<8
	if len(b) < 2+n {
		return nil, nil, fmt.Errorf("truncated chunk: want %d bytes, have %d", n, len(b)-2)
	}
	return b[2 : 2+n], b[2+n:], nil
}
