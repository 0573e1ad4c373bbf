package transfer

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dstress/internal/group"
	"dstress/internal/network"
)

// aggPayload builds a relay-to-adjuster payload of K+1 random bundles.
func aggPayload(p Params) []byte {
	g := p.Group
	rnd := func() group.Element { return g.ScalarBaseMul(group.MustRandomScalar(g)) }
	var payload []byte
	for m := 0; m <= p.K; m++ {
		bd := bundle{C1: rnd(), C2: make([]group.Element, p.L)}
		for b := range bd.C2 {
			bd.C2[b] = rnd()
		}
		payload = append(payload, p.encodeBundle(bd)...)
	}
	return payload
}

// adjust feeds payload to RunAdjust as the relay's aggregate under tag
// "adj"; the adjusted bundles wait in the members' inboxes.
func adjust(t *testing.T, e *env, payload []byte) error {
	t.Helper()
	if err := e.net.Endpoint(e.relay).Send(e.adjuster, network.Tag("adj", "agg"), payload); err != nil {
		t.Fatal(err)
	}
	return RunAdjust(context.Background(), e.p, e.net.Endpoint(e.adjuster), e.relay, e.recvs, e.neighbor, "adj")
}

// TestAdjustForwardsC2Verbatim: the adjuster decodes only the ephemeral
// and copies the C2 chunks through, which must produce exactly the bytes
// of decoding, adjusting and re-encoding the whole bundle.
func TestAdjustForwardsC2Verbatim(t *testing.T) {
	for _, g := range []group.Group{group.ModP256(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			p := Params{Group: g, K: 2, L: 8, Alpha: 0.5}
			e := newEnv(t, p)
			payload := aggPayload(p)
			if err := adjust(t, e, payload); err != nil {
				t.Fatal(err)
			}
			data := payload
			for m, id := range e.recvs {
				got, err := e.net.Endpoint(id).Recv(context.Background(), e.adjuster, network.Tag("adj", "out"))
				if err != nil {
					t.Fatal(err)
				}
				bd, rest, err := p.decodeBundle(data)
				if err != nil {
					t.Fatal(err)
				}
				data = rest
				bd.C1 = g.ScalarMul(bd.C1, e.neighbor)
				if want := p.encodeBundle(bd); !bytes.Equal(got, want) {
					t.Errorf("member %d: forwarded bundle differs from the decode/re-encode path", m)
				}
			}
		})
	}
}

// TestAdjustGarbledC2FailsAtReceiver: a C2 point the adjuster forwards
// without decoding is still validated by the receiving member.
func TestAdjustGarbledC2FailsAtReceiver(t *testing.T) {
	p := testParams()
	e := newEnv(t, p)
	payload := aggPayload(p)
	// modp elements are 32 bytes, so every chunk is 2+32 bytes; overwrite
	// bundle 0's C2[3] with a value ≥ p.
	const chunk = 2 + 32
	off := chunk + 3*chunk + 2
	copy(payload[off:off+32], bytes.Repeat([]byte{0xff}, 32))
	if err := adjust(t, e, payload); err != nil {
		t.Fatalf("adjuster rejected a framing-valid aggregate: %v", err)
	}
	_, err := ReceiveShare(context.Background(), p, e.net.Endpoint(e.recvs[0]), e.adjuster, "adj", e.privKeys[0], e.table)
	if err == nil || !strings.Contains(err.Error(), "bad component 3") {
		t.Fatalf("garbled C2 accepted by the receiver: err = %v", err)
	}
}

// TestAdjustFramingErrors: the adjuster still rejects a truncated
// aggregate and one with trailing bytes.
func TestAdjustFramingErrors(t *testing.T) {
	p := testParams()
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-5] },
		"trailing":  func(b []byte) []byte { return append(b, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, p)
			if err := adjust(t, e, mutate(aggPayload(p))); err == nil {
				t.Fatal("adjuster accepted a malformed aggregate")
			}
		})
	}
}
