package gmw

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dstress/internal/circuit"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
)

// otKinds are the OT provisionings the data-plane tests run under: a
// dealer broker, and per-node substrates with real base OTs.
var otKinds = []struct {
	name string
	mk   func(net *network.Network, ids []network.NodeID) func(i int) OTOption
}{
	{"dealer", func(*network.Network, []network.NodeID) func(int) OTOption {
		b := ot.NewDealerBroker()
		return func(int) OTOption { return DealerOT{Broker: b} }
	}},
	{"substrate", func(net *network.Network, ids []network.NodeID) func(int) OTOption {
		subs := make([]*ot.Substrate, len(ids))
		for i, id := range ids {
			subs[i] = ot.NewSubstrate(group.ModP256(), net.Endpoint(id))
		}
		return func(i int) OTOption { return SubstrateOT{Sub: subs[i]} }
	}},
}

// onEach runs fn for every party index concurrently and fails on the
// first error.
func onEach(t *testing.T, n int, fn func(i int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
	}
}

// joinParties stands up an n-party session on net under the given OT kind.
func joinParties(t *testing.T, net *network.Network, n int, opt func(net *network.Network, ids []network.NodeID) func(int) OTOption) []*Party {
	t.Helper()
	ids := make([]network.NodeID, n)
	for i := range ids {
		ids[i] = network.NodeID(i + 1)
	}
	mk := opt(net, ids)
	ps := make([]*Party, n)
	onEach(t, n, func(i int) error {
		var err error
		ps[i], err = NewParty(context.Background(), Config{
			Parties: ids, Index: i, Transport: net.Endpoint(ids[i]), Tag: "sess", OT: mk(i),
		})
		return err
	})
	return ps
}

func TestTriplesCorrelated(t *testing.T) {
	// Level widths straddling word boundaries, so the word-aligned re-layout
	// of the bulk batch is exercised at every shift.
	widths := []int{1, 63, 64, 65, 130, 7, 200}
	packed := make([]circuit.PackedRound, len(widths))
	for r, g := range widths {
		packed[r].Out = make([]circuit.Wire, g)
	}
	for _, n := range []int{2, 3} {
		for _, kind := range otKinds {
			t.Run(fmt.Sprintf("%s/n=%d", kind.name, n), func(t *testing.T) {
				ps := joinParties(t, network.New(), n, kind.mk)
				ts := make([]*triples, n)
				onEach(t, n, func(i int) error {
					var err error
					ts[i], err = ps[i].genTriples(context.Background(), packed, 0)
					return err
				})
				off := 0
				for r, g := range widths {
					ones := 0
					for w := off; w < off+ot.Words(g); w++ {
						var a, b, c uint64
						for _, tr := range ts {
							a ^= tr.a[w]
							b ^= tr.b[w]
							c ^= tr.c[w]
						}
						if c != a&b {
							t.Fatalf("level %d word %d: ⊕c = %#x, (⊕a)∧(⊕b) = %#x", r, w-off, c, a&b)
						}
						if w == off+ot.Words(g)-1 && g&63 != 0 && (a|b|c)>>(g&63) != 0 {
							t.Fatalf("level %d: tail bits past width %d are set", r, g)
						}
						for _, v := range []uint64{a, b} {
							for ; v != 0; v &= v - 1 {
								ones++
							}
						}
					}
					if g >= 64 && (ones < g/2 || ones > 3*g/2) {
						t.Errorf("level %d: %d of %d opened a,b bits set; triples look non-random", r, ones, 2*g)
					}
					off += ot.Words(g)
				}
			})
		}
	}
}

func TestOneOpeningPerPeerPerLevel(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.InputWord(8)
	y := b.InputWord(8)
	b.OutputWord(b.Mul(x, y))
	c := b.Build()
	levels := 0
	for _, r := range c.Rounds {
		if len(r.And) > 0 {
			levels++
		}
	}
	if levels < 2 {
		t.Fatalf("circuit has %d AND levels; want a multi-level circuit", levels)
	}
	const n = 3
	net := network.New()
	ps := joinParties(t, net, n, otKinds[0].mk) // dealer: no extension traffic
	in := make([]uint8, c.NumInputs)
	for eval := 0; eval < 2; eval++ {
		before := make([]int64, n)
		for i, p := range ps {
			before[i] = net.NodeStats(p.cfg.Parties[i]).MessagesSent
		}
		onEach(t, n, func(i int) error {
			_, err := ps[i].Evaluate(context.Background(), c, in)
			return err
		})
		// Per peer: one opening per AND level, plus the bulk triple batch's
		// two derandomization messages (the choice mask as receiver, the
		// masked pads as sender).
		want := int64((n - 1) * (levels + 2))
		for i, p := range ps {
			if got := net.NodeStats(p.cfg.Parties[i]).MessagesSent - before[i]; got != want {
				t.Errorf("eval %d party %d sent %d messages over %d AND levels, want %d", eval, i, got, levels, want)
			}
		}
	}
}

func TestANDFreeCircuitSendsNothing(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.InputWord(4)
	y := b.InputWord(4)
	b.OutputWord(b.XorWords(x, y))
	b.Output(b.Not(x[0]))
	c := b.Build()
	if c.NumAnd != 0 {
		t.Fatalf("circuit has %d AND gates", c.NumAnd)
	}
	for _, kind := range otKinds {
		t.Run(kind.name, func(t *testing.T) {
			net := network.New()
			ps := joinParties(t, net, 3, kind.mk)
			before := net.TotalBytes()
			onEach(t, 3, func(i int) error {
				_, err := ps[i].Evaluate(context.Background(), c, make([]uint8, c.NumInputs))
				return err
			})
			if sent := net.TotalBytes() - before; sent != 0 {
				t.Errorf("AND-free evaluation sent %d bytes", sent)
			}
		})
	}
}
