package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"time"

	"dstress/internal/circuit"
	"dstress/internal/dp"
	"dstress/internal/elgamal"
	"dstress/internal/gmw"
	"dstress/internal/group"
	"dstress/internal/network"
	"dstress/internal/ot"
	"dstress/internal/secretshare"
	"dstress/internal/tcpnet"
	"dstress/internal/transfer"
	"dstress/internal/trustedparty"
	"dstress/internal/vertex"
)

// Layer probes time the benchmark's own calls into each module's public
// functions with the workload's parameters. Each probe checks its own
// output; a failed check fails the run.

// timed calls fn in batches of batch calls until at least minBatches
// batches ran and budget has passed, and returns the median per-call time
// in seconds.
func timed(minBatches, batch int, budget time.Duration, fn func() error) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < minBatches || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, time.Since(t0).Seconds()/float64(batch))
	}
	return median(per), nil
}

func (r *runner) probe(name string, err error) {
	if err != nil {
		r.probeErrs = append(r.probeErrs, fmt.Sprintf("%s: %v", name, err))
	}
}

// probes runs every layer probe; each records its metrics or a failure.
func (r *runner) probes(ctx context.Context) {
	g := group.P256()
	upd, err := r.in.Program.UpdateCircuit(r.w.D)
	if err != nil {
		r.probe("circuit", err)
		return
	}
	noise := vertex.DefaultNoiseSpec(queryEpsilon, r.in.Program.Sensitivity, 0)
	agg, err := r.in.Program.AggregateCircuit(r.w.N, noise)
	if err != nil {
		r.probe("circuit", err)
		return
	}
	r.res.add("circuit.update_depth", float64(upd.Depth()))
	r.res.add("circuit.update_ands", float64(upd.NumAnd))
	r.res.add("circuit.agg_ands", float64(agg.NumAnd))

	r.probe("gmw", r.probeGMW(ctx, g, upd))
	r.probe("ot", r.probeOT(ctx, g, upd))
	r.probe("network", r.probeHub(ctx))
	r.probe("tcpnet", r.probeTCP(ctx))
	r.probe("group", r.probeGroup(g))
	r.probe("elgamal", r.probeElGamal(g))
	r.probe("transfer", r.probeTransfer(ctx, g))
	r.probe("trustedparty", r.probeTrustedParty(g))
}

// members returns the node ids 1..n.
func members(n int) []network.NodeID {
	ids := make([]network.NodeID, n)
	for i := range ids {
		ids[i] = network.NodeID(i + 1)
	}
	return ids
}

// parallel runs fn(i) for i in [0,n) concurrently and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probeGMW evaluates the workload's update circuit among k+1 IKNP parties
// on a hub and checks the opened output against circuit.Eval.
func (r *runner) probeGMW(ctx context.Context, g group.Group, c *circuit.Circuit) error {
	n := r.w.K + 1
	ids := members(n)
	hub := network.New()
	parties := make([]*gmw.Party, n)
	if err := parallel(n, func(i int) error {
		var err error
		parties[i], err = gmw.NewParty(ctx, gmw.Config{
			Parties: ids, Index: i, Transport: hub.Endpoint(ids[i]), Tag: "probe", OT: gmw.IKNPOT{Group: g},
		})
		return err
	}); err != nil {
		return err
	}
	eval := func() error {
		in, err := vertex.RandomInputBits(c.NumInputs)
		if err != nil {
			return err
		}
		want, err := c.Eval(in)
		if err != nil {
			return err
		}
		shares := make([][]uint8, n)
		for i := range shares {
			shares[i] = make([]uint8, len(in))
		}
		for b, bit := range in {
			s := secretshare.SplitXOR(uint64(bit), n, 1)
			for i := range shares {
				shares[i][b] = uint8(s[i])
			}
		}
		opened := make([][]uint8, n)
		if err := parallel(n, func(i int) error {
			out, err := parties[i].Evaluate(ctx, c, shares[i])
			if err != nil {
				return err
			}
			opened[i], err = parties[i].Open(ctx, out)
			return err
		}); err != nil {
			return err
		}
		for i := range opened {
			if !bytes.Equal(opened[i], want) {
				return fmt.Errorf("party %d opened %v, circuit.Eval gives %v", i, opened[i], want)
			}
		}
		return nil
	}
	s, err := timed(3, 1, time.Second, eval)
	if err != nil {
		return err
	}
	r.res.add("gmw.eval_s", s)
	if d := c.Depth(); d > 0 {
		r.res.add("gmw.round_us", s/float64(d)*1e6)
	}
	return nil
}

// probeOT times an IKNP sender/receiver handshake and the random-OT batch
// one AND round of the update circuit draws (its mean round width), and
// checks every pad against the receiver's choices.
func (r *runner) probeOT(ctx context.Context, g group.Group, c *circuit.Circuit) error {
	var snd *ot.IKNPSender
	var rcv *ot.IKNPReceiver
	hub := network.New()
	handshakes := 0
	setup := func() error {
		tag := network.Tag("iknp", handshakes)
		handshakes++
		return parallel(2, func(i int) error {
			var err error
			if i == 0 {
				snd, err = ot.NewIKNPSender(ctx, g, hub.Endpoint(1), 2, tag)
			} else {
				rcv, err = ot.NewIKNPReceiver(ctx, g, hub.Endpoint(2), 1, tag)
			}
			return err
		})
	}
	s, err := timed(3, 1, time.Second, setup)
	if err != nil {
		return err
	}
	r.res.add("ot.base_handshake_s", s)

	width := 1
	if d := c.Depth(); d > 0 {
		width = (c.NumAnd + d - 1) / d
	}
	batch := func() error {
		var m0, m1, choice, got []uint64
		if err := parallel(2, func(i int) error {
			var err error
			if i == 0 {
				m0, m1, err = snd.RandomPadWords(ctx, width)
			} else {
				choice, got, err = rcv.RandomChoiceWords(ctx, width)
			}
			return err
		}); err != nil {
			return err
		}
		for k := 0; k < width; k++ {
			want := ot.Bit(m0, k)
			if ot.Bit(choice, k) == 1 {
				want = ot.Bit(m1, k)
			}
			if ot.Bit(got, k) != want {
				return fmt.Errorf("random OT %d: receiver pad does not match its choice", k)
			}
		}
		return nil
	}
	s, err = timed(5, 512, 500*time.Millisecond, batch)
	if err != nil {
		return err
	}
	r.res.add("ot.iknp_batch_us", s*1e6)
	return nil
}

// pingPong times round trips of a 64-byte payload between two transports
// and checks that every payload comes back intact.
func pingPong(ctx context.Context, a, b network.Transport, batch int, budget time.Duration) (float64, error) {
	payload := make([]byte, 64)
	if _, err := rand.Read(payload); err != nil {
		return 0, err
	}
	echoCtx, stop := context.WithCancel(ctx)
	var echoErr error
	done := make(chan struct{})
	// The echo side answers pings until the timing loop is over and
	// cancels it.
	go func() {
		defer close(done)
		for {
			p, err := b.Recv(echoCtx, a.ID(), "ping")
			if err != nil {
				if echoCtx.Err() == nil {
					echoErr = err
				}
				return
			}
			if err := b.Send(a.ID(), "pong", p); err != nil {
				echoErr = err
				return
			}
		}
	}()
	s, err := timed(5, batch, budget, func() error {
		if err := a.Send(b.ID(), "ping", payload); err != nil {
			return err
		}
		back, err := a.Recv(ctx, b.ID(), "pong")
		if err != nil {
			return err
		}
		if !bytes.Equal(back, payload) {
			return fmt.Errorf("ping payload corrupted in round trip")
		}
		return nil
	})
	stop()
	<-done
	if err == nil {
		err = echoErr
	}
	return s * 1e6, err
}

// probeHub times an Endpoint Send/Recv round trip on the in-process hub.
func (r *runner) probeHub(ctx context.Context) error {
	hub := network.New()
	us, err := pingPong(ctx, hub.Endpoint(1), hub.Endpoint(2), 1000, 300*time.Millisecond)
	if err != nil {
		return err
	}
	r.res.add("network.rtt_us", us)
	return nil
}

// probeTCP times a tcpnet Peer round trip over loopback sockets.
func (r *runner) probeTCP(ctx context.Context) error {
	a, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen(2, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.Register(2, b.Addr())
	b.Register(1, a.Addr())
	us, err := pingPong(ctx, a, b, 200, 300*time.Millisecond)
	if err != nil {
		return err
	}
	r.res.add("tcpnet.rtt_us", us)
	return nil
}

// probeGroup times a variable-base exponentiation and a fixed-base one
// through a precomputed table (the path transfers take for certificate
// keys), checking that both agree.
func (r *runner) probeGroup(g group.Group) error {
	base := g.ScalarBaseMul(group.MustRandomScalar(g))
	tab := group.Precompute(g, base)
	k := group.MustRandomScalar(g)
	if !g.Equal(tab.ScalarMul(k), g.ScalarMul(base, k)) {
		return fmt.Errorf("fixed-base table disagrees with ScalarMul")
	}
	s, err := timed(5, 20, 200*time.Millisecond, func() error {
		g.ScalarMul(base, k)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.add("group.exp_var_us", s*1e6)
	s, err = timed(5, 20, 200*time.Millisecond, func() error {
		tab.ScalarMul(k)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.add("group.exp_fixed_us", s*1e6)
	return nil
}

// probeElGamal times the decryption-table build a deployment performs and
// one encryption and decryption of a transfer bit, checking the round
// trip.
func (r *runner) probeElGamal(g group.Group) error {
	p := transfer.Params{Group: g, K: r.w.K, L: r.in.Program.MsgBits, Alpha: transferAlpha}
	var table *elgamal.Table
	s, err := timed(3, 1, 500*time.Millisecond, func() error {
		table = p.MakeTable(1e-12)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.add("elgamal.table_build_s", s)
	sk, err := elgamal.GenerateKey(g)
	if err != nil {
		return err
	}
	pk := sk.PublicKey
	var ct elgamal.Ciphertext
	var m int64
	s, err = timed(5, 10, 200*time.Millisecond, func() error {
		m = 1 - m
		ct = pk.Encrypt(m)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.add("elgamal.encrypt_us", s*1e6)
	s, err = timed(5, 10, 200*time.Millisecond, func() error {
		got, err := sk.Decrypt(ct, table)
		if err != nil {
			return err
		}
		if got != m {
			return fmt.Errorf("decrypted %d, encrypted %d", got, m)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.add("elgamal.decrypt_us", s*1e6)
	return nil
}

// probeTransfer times one SendShare → RunRelay → RunAdjust → ReceiveShare
// chain between two blocks of k+1 members and checks that the receiving
// block reconstructs the value the sending block shared.
func (r *runner) probeTransfer(ctx context.Context, g group.Group) error {
	k, l := r.w.K, r.in.Program.MsgBits
	p := transfer.Params{Group: g, K: k, L: l, Alpha: transferAlpha}
	if err := p.Validate(); err != nil {
		return err
	}
	const relay, adjuster = network.NodeID(100), network.NodeID(200)
	var senders, recvs []network.NodeID
	for m := 0; m <= k; m++ {
		senders = append(senders, network.NodeID(1+m))
		recvs = append(recvs, network.NodeID(201+m))
	}
	neighbor := group.MustRandomScalar(g)
	certKeys := make(transfer.RecipientKeys, k+1)
	privKeys := make([][]*elgamal.PrivateKey, k+1)
	for m := 0; m <= k; m++ {
		for b := 0; b < l; b++ {
			sk, err := elgamal.GenerateKey(g)
			if err != nil {
				return err
			}
			privKeys[m] = append(privKeys[m], sk)
			certKeys[m] = append(certKeys[m], sk.PublicKey.Randomize(neighbor))
		}
	}
	certKeys = certKeys.Precompute()
	table := p.MakeTable(1e-12)
	hub := network.New()
	seq := 0
	chain := func() error {
		tag := network.Tag("xfer", seq)
		seq++
		value, err := randomValue(l)
		if err != nil {
			return err
		}
		shares := secretshare.SplitXOR(value, k+1, l)
		fresh := make([]uint64, k+1)
		n := len(senders) + 2 + len(recvs)
		if err := parallel(n, func(i int) error {
			switch {
			case i < len(senders):
				return transfer.SendShare(ctx, p, hub.Endpoint(senders[i]), relay, tag, shares[i], certKeys)
			case i == len(senders):
				return transfer.RunRelay(ctx, p, hub.Endpoint(relay), senders, adjuster, tag, dp.CryptoSource{})
			case i == len(senders)+1:
				return transfer.RunAdjust(ctx, p, hub.Endpoint(adjuster), relay, recvs, neighbor, tag)
			default:
				m := i - len(senders) - 2
				v, err := transfer.ReceiveShare(ctx, p, hub.Endpoint(recvs[m]), adjuster, tag, privKeys[m], table)
				fresh[m] = v
				return err
			}
		}); err != nil {
			return err
		}
		if got := secretshare.CombineXOR(fresh); got != value {
			return fmt.Errorf("transfer delivered %d, sent %d", got, value)
		}
		return nil
	}
	s, err := timed(3, 1, time.Second, chain)
	if err != nil {
		return err
	}
	r.res.add("transfer.one_s", s)
	return nil
}

// randomValue draws a uniform bits-bit value.
func randomValue(bits int) (uint64, error) {
	v, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if err != nil {
		return 0, err
	}
	return v.Uint64(), nil
}

// probeTrustedParty times the §3.4 setup for the workload's N
// registrations and verifies the signed block assignment it returns.
func (r *runner) probeTrustedParty(g group.Group) error {
	p := trustedparty.Params{Group: g, K: r.w.K, D: r.w.D, L: r.in.Program.MsgBits}
	regs := make([]trustedparty.NodeRegistration, r.w.N)
	for i, id := range members(r.w.N) {
		reg, _, err := trustedparty.RegisterNode(p, id)
		if err != nil {
			return err
		}
		regs[i] = reg
	}
	s, err := timed(3, 1, time.Second, func() error {
		tp, err := trustedparty.New(p)
		if err != nil {
			return err
		}
		res, err := tp.Setup(regs)
		if err != nil {
			return err
		}
		if !trustedparty.VerifyAssignment(res.VerifyKey, res.Assignment) {
			return fmt.Errorf("setup's block assignment fails verification")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.add("trustedparty.setup_s", s)
	return nil
}
