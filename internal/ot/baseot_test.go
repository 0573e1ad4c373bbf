package ot

import (
	"bytes"
	"context"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dstress/internal/group"
	"dstress/internal/network"
)

// runBaseOT runs one sender/receiver pair of base-OT batches over a fresh
// network, the sender on gs and the receiver on gr.
func runBaseOT(t testing.TB, gs, gr group.Group, choices []uint8) (k0, k1, ks [][]byte) {
	t.Helper()
	net := network.New()
	var sendErr, recvErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		k0, k1, sendErr = BaseOTSend(context.Background(), gs, net.Endpoint(1), 2, "bot", len(choices))
	}()
	go func() {
		defer wg.Done()
		ks, recvErr = BaseOTReceive(context.Background(), gr, net.Endpoint(2), 1, "bot", choices)
	}()
	wg.Wait()
	if sendErr != nil || recvErr != nil {
		t.Fatalf("errors: %v / %v", sendErr, recvErr)
	}
	return k0, k1, ks
}

func TestBaseOT(t *testing.T) {
	const count = 16
	choiceSets := map[string][]uint8{
		"zeros":  make([]uint8, count),
		"ones":   bytes.Repeat([]uint8{1}, count),
		"random": randBits(count),
	}
	for _, g := range []group.Group{group.ModP256(), group.P256()} {
		for name, choices := range choiceSets {
			t.Run(g.Name()+"/"+name, func(t *testing.T) {
				k0, k1, ks := runBaseOT(t, g, g, choices)
				seen := make(map[string]bool)
				for j := 0; j < count; j++ {
					want, other := k0[j], k1[j]
					if choices[j] == 1 {
						want, other = other, want
					}
					if !bytes.Equal(ks[j], want) {
						t.Errorf("instance %d: receiver seed does not match chosen branch", j)
					}
					if bytes.Equal(ks[j], other) {
						t.Errorf("instance %d: receiver seed equals unchosen branch", j)
					}
					for _, k := range [][]byte{k0[j], k1[j]} {
						if seen[string(k)] {
							t.Errorf("instance %d: seed repeats an earlier one", j)
						}
						seen[string(k)] = true
					}
				}
			})
		}
	}
}

// countingGroup counts the calls that dominate base-OT cost.
type countingGroup struct {
	group.Group
	baseMul, mul, decode atomic.Int64
}

func (c *countingGroup) ScalarBaseMul(k *big.Int) group.Element {
	c.baseMul.Add(1)
	return c.Group.ScalarBaseMul(k)
}

func (c *countingGroup) ScalarMul(a group.Element, k *big.Int) group.Element {
	c.mul.Add(1)
	return c.Group.ScalarMul(a, k)
}

func (c *countingGroup) Decode(b []byte) (group.Element, error) {
	c.decode.Add(1)
	return c.Group.Decode(b)
}

// TestBaseOTCost pins the per-batch exponentiation and decode counts of
// both roles: the sender draws one A and pays one variable-base
// exponentiation per instance, the receiver decodes A once.
func TestBaseOTCost(t *testing.T) {
	const count = 32
	sender := &countingGroup{Group: group.ModP256()}
	receiver := &countingGroup{Group: group.ModP256()}
	runBaseOT(t, sender, receiver, randBits(count))
	check := func(role, op string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d %s calls, want %d", role, got, op, want)
		}
	}
	check("sender", "ScalarBaseMul", sender.baseMul.Load(), 1)
	check("sender", "ScalarMul", sender.mul.Load(), count+1)
	check("sender", "Decode", sender.decode.Load(), count)
	check("receiver", "ScalarBaseMul", receiver.baseMul.Load(), count)
	check("receiver", "ScalarMul", receiver.mul.Load(), count)
	check("receiver", "Decode", receiver.decode.Load(), 1)
}

// TestBaseOTRejectsIdentity: an identity A would let the sender compute
// both seeds, so the receiver refuses it.
func TestBaseOTRejectsIdentity(t *testing.T) {
	for _, g := range []group.Group{group.ModP256(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			net := network.New()
			if err := net.Endpoint(1).Send(2, network.Tag("bot", "A"), g.Encode(g.Identity())); err != nil {
				t.Fatal(err)
			}
			_, err := BaseOTReceive(context.Background(), g, net.Endpoint(2), 1, "bot", randBits(8))
			if err == nil || !strings.Contains(err.Error(), "identity") {
				t.Fatalf("identity A accepted: err = %v", err)
			}
		})
	}
}

// BenchmarkBaseOTP256 times one Lambda-instance batch on P-256, both roles
// running concurrently as in a substrate handshake.
func BenchmarkBaseOTP256(b *testing.B) {
	g := group.P256()
	choices := randBits(Lambda)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runBaseOT(b, g, g, choices)
	}
}
