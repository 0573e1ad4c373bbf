package trustedparty

import (
	"testing"

	"dstress/internal/elgamal"
	"dstress/internal/group"
	"dstress/internal/network"
)

var tg = group.ModP256()

func testParams() Params {
	return Params{Group: tg, K: 2, D: 3, L: 4}
}

// runSetup registers n nodes and runs the TP, returning everything.
func runSetup(t testing.TB, p Params, n int) (*SetupResult, []NodeRegistration, []NodeSecrets) {
	t.Helper()
	regs := make([]NodeRegistration, n)
	secs := make([]NodeSecrets, n)
	for i := 0; i < n; i++ {
		var err error
		regs[i], secs[i], err = RegisterNode(p, network.NodeID(i+1))
		if err != nil {
			t.Fatal(err)
		}
	}
	tp, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tp.Setup(regs)
	if err != nil {
		t.Fatal(err)
	}
	return res, regs, secs
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Group: nil, K: 1, D: 1, L: 1},
		{Group: tg, K: 0, D: 1, L: 1},
		{Group: tg, K: 1, D: 0, L: 1},
		{Group: tg, K: 1, D: 1, L: 0},
		{Group: tg, K: 1, D: 1, L: 65},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
	if err := testParams().Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

func TestRegisterNodeShape(t *testing.T) {
	p := testParams()
	reg, sec, err := RegisterNode(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.PublicKeys) != p.L || len(sec.PrivateKeys) != p.L {
		t.Errorf("key counts: %d/%d, want %d", len(reg.PublicKeys), len(sec.PrivateKeys), p.L)
	}
	if len(reg.NeighborKeys) != p.D {
		t.Errorf("neighbor key count %d, want %d", len(reg.NeighborKeys), p.D)
	}
	// Public/private keys must match.
	for b := 0; b < p.L; b++ {
		if !tg.Equal(reg.PublicKeys[b].H, sec.PrivateKeys[b].PublicKey.H) {
			t.Errorf("bit %d: registered key does not match secret", b)
		}
	}
}

func TestBlocksWellFormed(t *testing.T) {
	p := testParams()
	const n = 10
	res, _, _ := runSetup(t, p, n)
	if len(res.Assignment.Blocks) != n {
		t.Fatalf("got %d blocks, want %d", len(res.Assignment.Blocks), n)
	}
	for id, members := range res.Assignment.Blocks {
		if len(members) != p.K+1 {
			t.Errorf("block of %d has %d members, want %d", id, len(members), p.K+1)
		}
		if members[0] != id {
			t.Errorf("block of %d does not start with its owner", id)
		}
		seen := map[network.NodeID]bool{}
		for _, m := range members {
			if seen[m] {
				t.Errorf("block of %d has duplicate member %d", id, m)
			}
			seen[m] = true
		}
	}
	if len(res.Assignment.AggBlock) != p.K+1 {
		t.Errorf("aggregation block has %d members", len(res.Assignment.AggBlock))
	}
}

func TestAssignmentSignature(t *testing.T) {
	res, _, _ := runSetup(t, testParams(), 8)
	if !VerifyAssignment(res.VerifyKey, res.Assignment) {
		t.Error("valid assignment signature rejected")
	}
	tampered := res.Assignment
	tampered.AggBlock = append([]network.NodeID{}, tampered.AggBlock...)
	tampered.AggBlock[0] = 999
	if VerifyAssignment(res.VerifyKey, tampered) {
		t.Error("tampered assignment accepted")
	}
}

func TestCertSignatures(t *testing.T) {
	p := testParams()
	res, _, _ := runSetup(t, p, 8)
	for id, certs := range res.Certs {
		if len(certs) != p.D {
			t.Fatalf("node %d has %d certs, want %d", id, len(certs), p.D)
		}
		for j, c := range certs {
			if !VerifyCert(res.VerifyKey, tg, c) {
				t.Errorf("node %d cert %d: valid signature rejected", id, j)
			}
		}
	}
	// Tampering with a key must break the signature.
	anyCert := res.Certs[1][0]
	anyCert.Keys[0][0] = anyCert.Keys[0][0].Randomize(group.MustRandomScalar(tg))
	if VerifyCert(res.VerifyKey, tg, anyCert) {
		t.Error("tampered certificate accepted")
	}
}

func TestCertsMatchNeighborKeys(t *testing.T) {
	// Node i can audit: cert j = block member keys ^ neighborKey_j.
	p := testParams()
	const n = 8
	res, regs, secs := runSetup(t, p, n)
	regByID := map[network.NodeID]NodeRegistration{}
	for _, r := range regs {
		regByID[r.ID] = r
	}
	for idx, r := range regs {
		members := res.Assignment.Blocks[r.ID]
		memberKeys := make([][]elgamal.PublicKey, len(members))
		for m, member := range members {
			memberKeys[m] = regByID[member].PublicKeys
		}
		for j := 0; j < p.D; j++ {
			if !CheckCertMatches(tg, res.Certs[r.ID][j], memberKeys, secs[idx].NeighborKeys[j]) {
				t.Errorf("node %d cert %d does not match neighbor key", r.ID, j)
			}
		}
		// Wrong neighbor key must not match.
		if CheckCertMatches(tg, res.Certs[r.ID][0], memberKeys, secs[idx].NeighborKeys[1]) {
			t.Errorf("node %d cert 0 matched the wrong neighbor key", r.ID)
		}
	}
}

func TestRerandomizedKeysHideIdentity(t *testing.T) {
	// No key in any certificate may equal a registered public key — that
	// is the linkability the re-randomization prevents (§3.4).
	p := testParams()
	res, regs, _ := runSetup(t, p, 8)
	registered := map[string]bool{}
	for _, r := range regs {
		for _, pk := range r.PublicKeys {
			registered[string(tg.Encode(pk.H))] = true
		}
	}
	for id, certs := range res.Certs {
		for j, c := range certs {
			for m := range c.Keys {
				for b := range c.Keys[m] {
					if registered[string(tg.Encode(c.Keys[m][b].H))] {
						t.Errorf("node %d cert %d member %d bit %d: re-randomized key equals a registered key", id, j, m, b)
					}
				}
			}
		}
	}
}

func TestEncryptUnderCertDecryptsAfterAdjust(t *testing.T) {
	// End-to-end key flow: encrypt under a certificate key, adjust with the
	// neighbor key, decrypt with the member's original private key.
	p := testParams()
	res, regs, secs := runSetup(t, p, 8)
	secByID := map[network.NodeID]NodeSecrets{}
	for i, r := range regs {
		secByID[r.ID] = secs[i]
	}
	owner := regs[0].ID
	ownerSec := secByID[owner]
	cert := res.Certs[owner][2]
	members := res.Assignment.Blocks[owner]

	table := elgamal.NewTable(tg, -8, 8)
	for m, member := range members {
		for b := 0; b < p.L; b++ {
			ct := cert.Keys[m][b].Encrypt(5)
			adj := elgamal.Adjust(tg, ct, ownerSec.NeighborKeys[2])
			got, err := secByID[member].PrivateKeys[b].Decrypt(adj, table)
			if err != nil {
				t.Fatalf("member %d bit %d: %v", member, b, err)
			}
			if got != 5 {
				t.Errorf("member %d bit %d: decrypted %d, want 5", member, b, got)
			}
		}
	}
}

func TestSetupErrors(t *testing.T) {
	p := testParams()
	tp, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	reg1, _, _ := RegisterNode(p, 1)
	reg2, _, _ := RegisterNode(p, 2)
	// Too few nodes.
	if _, err := tp.Setup([]NodeRegistration{reg1, reg2}); err == nil {
		t.Error("setup with fewer than k+1 nodes accepted")
	}
	// Duplicate IDs.
	reg2b, _, _ := RegisterNode(p, 1)
	reg3, _, _ := RegisterNode(p, 3)
	if _, err := tp.Setup([]NodeRegistration{reg1, reg2b, reg3}); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Wrong key count.
	regBad := reg3
	regBad.PublicKeys = regBad.PublicKeys[:1]
	if _, err := tp.Setup([]NodeRegistration{reg1, reg2, regBad}); err == nil {
		t.Error("registration with wrong key count accepted")
	}
}

// TestParallelSetupP256 runs the worker-pool certificate issuance at a
// benchmark-like size on a NIST curve: every (node, j) slot must hold a
// validly signed certificate built from that node's j-th neighbor key and
// its block members in block order.
func TestParallelSetupP256(t *testing.T) {
	g := group.P256()
	p := Params{Group: g, K: 1, D: 3, L: 12}
	const n = 16
	res, regs, secs := runSetup(t, p, n)
	regByID := map[network.NodeID]NodeRegistration{}
	for _, r := range regs {
		regByID[r.ID] = r
	}
	if len(res.Certs) != n {
		t.Fatalf("certificates for %d nodes, want %d", len(res.Certs), n)
	}
	for idx, r := range regs {
		members := res.Assignment.Blocks[r.ID]
		memberKeys := make([][]elgamal.PublicKey, len(members))
		for m, member := range members {
			memberKeys[m] = regByID[member].PublicKeys
		}
		if len(res.Certs[r.ID]) != p.D {
			t.Fatalf("node %d has %d certs, want %d", r.ID, len(res.Certs[r.ID]), p.D)
		}
		for j, c := range res.Certs[r.ID] {
			if !VerifyCert(res.VerifyKey, g, c) {
				t.Errorf("node %d cert %d: signature rejected", r.ID, j)
			}
			if !CheckCertMatches(g, c, memberKeys, secs[idx].NeighborKeys[j]) {
				t.Errorf("node %d cert %d does not match its neighbor key", r.ID, j)
			}
		}
	}
}

// BenchmarkSetupP256 times one trusted-party setup at the en-* benchmark
// shape (N = 8, D = 4, k = 1, L = 32) on P-256.
func BenchmarkSetupP256(b *testing.B) {
	p := Params{Group: group.P256(), K: 1, D: 4, L: 32}
	const n = 8
	regs := make([]NodeRegistration, n)
	for i := range regs {
		var err error
		if regs[i], _, err = RegisterNode(p, network.NodeID(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	tp, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Setup(regs); err != nil {
			b.Fatal(err)
		}
	}
}
