package ot

import (
	"bytes"
	"context"
	"crypto/rand"
	"sync"
	"testing"
	"testing/quick"

	"dstress/internal/group"
	"dstress/internal/network"
)

var tg = group.ModP256()

func randBits(n int) []uint8 {
	b := make([]byte, (n+7)/8)
	if _, err := rand.Read(b); err != nil {
		panic(err)
	}
	return UnpackBits(b, n)
}

func TestPackUnpackBits(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		bits := randBits(n)
		got := UnpackBits(PackBits(bits), n)
		if !bytes.Equal(bits, got) {
			t.Errorf("n=%d: round trip failed", n)
		}
	}
}

func TestQuickPackBits(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw)
		bits := make([]uint8, n)
		for i, b := range raw {
			bits[i] = b & 1
		}
		return bytes.Equal(UnpackBits(PackBits(bits), n), bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// setupIKNP builds a connected sender/receiver pair over a fresh network.
func setupIKNP(t testing.TB) (*IKNPSender, *IKNPReceiver, *network.Network) {
	t.Helper()
	net := network.New()
	var s *IKNPSender
	var r *IKNPReceiver
	var se, re error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s, se = NewIKNPSender(context.Background(), tg, net.Endpoint(1), 2, "iknp")
	}()
	go func() {
		defer wg.Done()
		r, re = NewIKNPReceiver(context.Background(), tg, net.Endpoint(2), 1, "iknp")
	}()
	wg.Wait()
	if se != nil || re != nil {
		t.Fatalf("setup errors: %v / %v", se, re)
	}
	return s, r, net
}

// checkRandomOTs validates the random-OT correlation on n instances.
func checkRandomOTs(t *testing.T, s RandomOTSender, r RandomOTReceiver, n int) {
	t.Helper()
	var w0, w1, rho, wr []byte
	var es, er error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w0, w1, es = s.RandomPads(context.Background(), n)
	}()
	go func() {
		defer wg.Done()
		rho, wr, er = r.RandomChoices(context.Background(), n)
	}()
	wg.Wait()
	if es != nil || er != nil {
		t.Fatalf("errors: %v / %v", es, er)
	}
	w0b := UnpackBits(w0, n)
	w1b := UnpackBits(w1, n)
	rhoB := UnpackBits(rho, n)
	wrB := UnpackBits(wr, n)
	ones, rhoOnes := 0, 0
	for i := 0; i < n; i++ {
		want := w0b[i]
		if rhoB[i] == 1 {
			want = w1b[i]
		}
		if wrB[i] != want {
			t.Fatalf("instance %d: receiver pad mismatch", i)
		}
		ones += int(w0b[i])
		rhoOnes += int(rhoB[i])
	}
	if n >= 1000 {
		// Pads and choices should be roughly balanced.
		if frac := float64(ones) / float64(n); frac < 0.4 || frac > 0.6 {
			t.Errorf("w0 ones fraction %.3f; pads biased", frac)
		}
		if frac := float64(rhoOnes) / float64(n); frac < 0.4 || frac > 0.6 {
			t.Errorf("rho ones fraction %.3f; choices biased", frac)
		}
	}
}

func TestIKNPRandomOTs(t *testing.T) {
	s, r, _ := setupIKNP(t)
	checkRandomOTs(t, s, r, 5000)
}

func TestIKNPMultipleBatches(t *testing.T) {
	// Several small batches must stay synchronized across chunk boundaries.
	s, r, _ := setupIKNP(t)
	for _, n := range []int{3, 100, 2048, 1, 4000} {
		checkRandomOTs(t, s, r, n)
	}
}

func mustDealerPair(tb testing.TB) (*DealerSender, *DealerReceiver) {
	tb.Helper()
	s, r, err := NewRandomDealerPair()
	if err != nil {
		tb.Fatal(err)
	}
	return s, r
}

func TestDealerRandomOTs(t *testing.T) {
	ds, dr := mustDealerPair(t)
	checkRandomOTs(t, ds, dr, 5000)
}

func TestDealerDeterministicFromSeed(t *testing.T) {
	var seed [SeedLen]byte
	seed[0] = 42
	s1, _ := NewDealerPair(seed)
	s2, _ := NewDealerPair(seed)
	a0, a1, _ := s1.RandomPads(context.Background(), 64)
	b0, b1, _ := s2.RandomPads(context.Background(), 64)
	if !bytes.Equal(a0, b0) || !bytes.Equal(a1, b1) {
		t.Error("dealer pads not deterministic in seed")
	}
}

// checkChosenOT runs the full chosen-message OT stack over a source pair.
func checkChosenOT(t *testing.T, mkPair func(net *network.Network) (RandomOTSender, RandomOTReceiver)) {
	t.Helper()
	net := network.New()
	src, rcv := mkPair(net)
	bs := NewBitSender(src, net.Endpoint(1), 2, "chosen")
	br := NewBitReceiver(rcv, net.Endpoint(2), 1, "chosen")

	const n = 3000
	m0 := randBits(n)
	m1 := randBits(n)
	choices := randBits(n)

	var got []uint8
	var se, re error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		se = bs.SendBits(context.Background(), m0, m1)
	}()
	go func() {
		defer wg.Done()
		got, re = br.ReceiveBits(context.Background(), choices)
	}()
	wg.Wait()
	if se != nil || re != nil {
		t.Fatalf("errors: %v / %v", se, re)
	}
	for i := 0; i < n; i++ {
		want := m0[i]
		if choices[i] == 1 {
			want = m1[i]
		}
		if got[i] != want {
			t.Fatalf("OT %d: got %d, want %d", i, got[i], want)
		}
	}
}

func TestChosenOTOverDealer(t *testing.T) {
	checkChosenOT(t, func(net *network.Network) (RandomOTSender, RandomOTReceiver) {
		s, r := mustDealerPair(t)
		return s, r
	})
}

func TestChosenOTOverIKNP(t *testing.T) {
	checkChosenOT(t, func(net *network.Network) (RandomOTSender, RandomOTReceiver) {
		var s *IKNPSender
		var r *IKNPReceiver
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s, _ = NewIKNPSender(context.Background(), tg, net.Endpoint(1), 2, "iknp")
		}()
		go func() {
			defer wg.Done()
			r, _ = NewIKNPReceiver(context.Background(), tg, net.Endpoint(2), 1, "iknp")
		}()
		wg.Wait()
		if s == nil || r == nil {
			t.Fatal("IKNP setup failed")
		}
		return s, r
	})
}

func TestChosenOTSequentialBatches(t *testing.T) {
	net := network.New()
	ds, dr := mustDealerPair(t)
	bs := NewBitSender(ds, net.Endpoint(1), 2, "seq")
	br := NewBitReceiver(dr, net.Endpoint(2), 1, "seq")
	for round := 0; round < 5; round++ {
		n := 17 * (round + 1)
		m0, m1, c := randBits(n), randBits(n), randBits(n)
		var got []uint8
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := bs.SendBits(context.Background(), m0, m1); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			var err error
			got, err = br.ReceiveBits(context.Background(), c)
			if err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		for i := 0; i < n; i++ {
			want := m0[i]
			if c[i] == 1 {
				want = m1[i]
			}
			if got[i] != want {
				t.Fatalf("round %d OT %d mismatch", round, i)
			}
		}
	}
}

func TestSendBitsValidation(t *testing.T) {
	ds, dr := mustDealerPair(t)
	net := network.New()
	bs := NewBitSender(ds, net.Endpoint(1), 2, "v")
	if err := bs.SendBits(context.Background(), []uint8{1}, []uint8{0, 1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	br := NewBitReceiver(dr, net.Endpoint(2), 1, "v")
	if _, err := br.ReceiveBits(context.Background(), []uint8{2}); err == nil {
		t.Error("non-bit choice accepted")
	}
	// Zero-length calls are no-ops.
	if err := bs.SendBits(context.Background(), nil, nil); err != nil {
		t.Errorf("empty SendBits: %v", err)
	}
	if out, err := br.ReceiveBits(context.Background(), nil); err != nil || out != nil {
		t.Errorf("empty ReceiveBits: %v %v", out, err)
	}
}

func TestIKNPTrafficPerOT(t *testing.T) {
	// IKNP's extension cost is Lambda bits = 16 bytes per OT; check the
	// measured traffic is in that ballpark (amortized over a chunk).
	s, r, net := setupIKNP(t)
	net.ResetStats()
	checkRandomOTs(t, s, r, extChunk)
	total := net.TotalBytes()
	perOT := float64(total) / float64(extChunk)
	if perOT < 14 || perOT > 24 {
		t.Errorf("IKNP extension traffic %.1f bytes/OT, expected ~16", perOT)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	const m = 256
	cols := make([][]byte, Lambda)
	for j := range cols {
		cols[j] = make([]byte, m/8)
		if _, err := rand.Read(cols[j]); err != nil {
			t.Fatal(err)
		}
	}
	rows := transposePacked(cols, m)
	for j := 0; j < Lambda; j++ {
		for i := 0; i < m; i++ {
			cb := (cols[j][i/8] >> (i % 8)) & 1
			rb := (rows[i*(Lambda/8)+j/8] >> (j % 8)) & 1
			if cb != rb {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func BenchmarkIKNPRandomOTs(b *testing.B) {
	s, r, _ := setupIKNP(b)
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.RandomPads(context.Background(), 1024); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, _, err := r.RandomChoices(context.Background(), 1024); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	b.SetBytes(1024 / 8)
}

func BenchmarkDealerRandomOTs(b *testing.B) {
	s, r := mustDealerPair(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RandomPads(context.Background(), 1024); err != nil {
			b.Fatal(err)
		}
		if _, _, err := r.RandomChoices(context.Background(), 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPackedValidation(t *testing.T) {
	ds, dr := mustDealerPair(t)
	net := network.New()
	bs := NewBitSender(ds, net.Endpoint(1), 2, "pv")
	br := NewBitReceiver(dr, net.Endpoint(2), 1, "pv")
	// Short word vectors must error, not panic (65 bits need 2 words).
	short := make([]uint64, 1)
	if err := bs.SendPacked(context.Background(), short, short, 65); err == nil {
		t.Error("short message vectors accepted")
	}
	if _, err := br.ReceivePacked(context.Background(), short, 65); err == nil {
		t.Error("short choice vector accepted")
	}
}
