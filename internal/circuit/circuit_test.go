package circuit

import (
	"testing"
	"testing/quick"
)

// evalWords builds a convenience harness: build a circuit with two W-bit
// input words, apply op, and evaluate it on (x, y).
func evalBinOp(t *testing.T, width int, op func(b *Builder, x, y Word) Word, x, y int64) int64 {
	t.Helper()
	b := NewBuilder()
	xw := b.InputWord(width)
	yw := b.InputWord(width)
	b.OutputWord(op(b, xw, yw))
	c := b.Build()
	in := append(EncodeWord(x, width), EncodeWord(y, width)...)
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	return DecodeWordS(out)
}

func evalPredicate(t *testing.T, width int, op func(b *Builder, x, y Word) Wire, x, y int64) bool {
	t.Helper()
	b := NewBuilder()
	xw := b.InputWord(width)
	yw := b.InputWord(width)
	b.Output(op(b, xw, yw))
	c := b.Build()
	in := append(EncodeWord(x, width), EncodeWord(y, width)...)
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	return out[0] == 1
}

func TestBasicGates(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	b.Output(b.Xor(x, y))
	b.Output(b.And(x, y))
	b.Output(b.Or(x, y))
	b.Output(b.Not(x))
	c := b.Build()
	cases := []struct {
		x, y               uint8
		xor, and, or, notx uint8
	}{
		{0, 0, 0, 0, 0, 1},
		{0, 1, 1, 0, 1, 1},
		{1, 0, 1, 0, 1, 0},
		{1, 1, 0, 1, 1, 0},
	}
	for _, tc := range cases {
		out, err := c.Eval([]uint8{tc.x, tc.y})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != tc.xor || out[1] != tc.and || out[2] != tc.or || out[3] != tc.notx {
			t.Errorf("x=%d y=%d: got %v", tc.x, tc.y, out)
		}
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder()
	s := b.Input()
	x := b.Input()
	y := b.Input()
	b.Output(b.Mux(s, x, y))
	c := b.Build()
	for _, tc := range [][4]uint8{
		{0, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 1}, {0, 1, 1, 1},
		{1, 0, 0, 0}, {1, 1, 0, 1}, {1, 0, 1, 0}, {1, 1, 1, 1},
	} {
		out, err := c.Eval([]uint8{tc[0], tc[1], tc[2]})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != tc[3] {
			t.Errorf("mux(%d,%d,%d) = %d, want %d", tc[0], tc[1], tc[2], out[0], tc[3])
		}
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	if got := b.Xor(x, b.Zero()); got != x {
		t.Error("x^0 not folded to x")
	}
	if got := b.And(x, b.Zero()); got != WireZero {
		t.Error("x&0 not folded to 0")
	}
	if got := b.And(x, b.One()); got != x {
		t.Error("x&1 not folded to x")
	}
	if got := b.Xor(x, x); got != WireZero {
		t.Error("x^x not folded to 0")
	}
	if got := b.And(x, x); got != x {
		t.Error("x&x not folded to x")
	}
	if len(b.gates) != 0 {
		t.Errorf("folding emitted %d gates", len(b.gates))
	}
}

func TestGateDeduplication(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	g1 := b.And(x, y)
	g2 := b.And(y, x)
	if g1 != g2 {
		t.Error("commuted AND not deduplicated")
	}
	if len(b.gates) != 1 {
		t.Errorf("dedup emitted %d gates", len(b.gates))
	}
}

func TestInputAfterGatePanics(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	b.And(x, y)
	defer func() {
		if recover() == nil {
			t.Error("Input after gate did not panic")
		}
	}()
	b.Input()
}

func TestAddSubWidths(t *testing.T) {
	for _, w := range []int{4, 8, 16, 32} {
		mask := int64(1)<<uint(w) - 1
		cases := [][2]int64{{0, 0}, {1, 1}, {3, 5}, {mask, 1}, {mask / 2, mask / 2}}
		for _, tc := range cases {
			got := evalBinOp(t, w, (*Builder).Add, tc[0], tc[1])
			want := DecodeWordS(EncodeWord(tc[0]+tc[1], w))
			if got != want {
				t.Errorf("w=%d: %d+%d = %d, want %d", w, tc[0], tc[1], got, want)
			}
			got = evalBinOp(t, w, (*Builder).Sub, tc[0], tc[1])
			want = DecodeWordS(EncodeWord(tc[0]-tc[1], w))
			if got != want {
				t.Errorf("w=%d: %d-%d = %d, want %d", w, tc[0], tc[1], got, want)
			}
		}
	}
}

func TestQuickAdd16(t *testing.T) {
	f := func(x, y int16) bool {
		got := evalBinOpQuick(16, (*Builder).Add, int64(x), int64(y))
		return got == int64(int16(x+y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSub16(t *testing.T) {
	f := func(x, y int16) bool {
		got := evalBinOpQuick(16, (*Builder).Sub, int64(x), int64(y))
		return got == int64(int16(x-y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMul16(t *testing.T) {
	f := func(x, y int16) bool {
		got := evalBinOpQuick(16, (*Builder).Mul, int64(x), int64(y))
		return got == int64(int16(x*y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// evalBinOpQuick is evalBinOp without the testing.T plumbing for quick.Check.
func evalBinOpQuick(width int, op func(b *Builder, x, y Word) Word, x, y int64) int64 {
	b := NewBuilder()
	xw := b.InputWord(width)
	yw := b.InputWord(width)
	b.OutputWord(op(b, xw, yw))
	c := b.Build()
	in := append(EncodeWord(x, width), EncodeWord(y, width)...)
	out, err := c.Eval(in)
	if err != nil {
		panic(err)
	}
	return DecodeWordS(out)
}

func TestNeg(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(8)
	b.OutputWord(b.Neg(x))
	c := b.Build()
	for _, v := range []int64{0, 1, -1, 127, -128, 42} {
		out, err := c.Eval(EncodeWord(v, 8))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(int8(-v))
		if got := DecodeWordS(out); got != want {
			t.Errorf("-%d = %d, want %d", v, got, want)
		}
	}
}

func TestComparisons(t *testing.T) {
	cases := [][2]int64{
		{0, 0}, {1, 2}, {2, 1}, {-1, 1}, {1, -1}, {-5, -3}, {-3, -5},
		{127, -128}, {-128, 127}, {100, 100},
	}
	for _, tc := range cases {
		x, y := tc[0], tc[1]
		if got := evalPredicate(t, 8, (*Builder).LessS, x, y); got != (x < y) {
			t.Errorf("LessS(%d,%d) = %v", x, y, got)
		}
		ux, uy := uint64(uint8(x)), uint64(uint8(y))
		if got := evalPredicate(t, 8, (*Builder).LessU, x, y); got != (ux < uy) {
			t.Errorf("LessU(%d,%d) = %v", x, y, got)
		}
		if got := evalPredicate(t, 8, (*Builder).Equal, x, y); got != (x == y) {
			t.Errorf("Equal(%d,%d) = %v", x, y, got)
		}
	}
}

func TestQuickLessS16(t *testing.T) {
	f := func(x, y int16) bool {
		b := NewBuilder()
		xw := b.InputWord(16)
		yw := b.InputWord(16)
		b.Output(b.LessS(xw, yw))
		c := b.Build()
		in := append(EncodeWord(int64(x), 16), EncodeWord(int64(y), 16)...)
		out, err := c.Eval(in)
		if err != nil {
			panic(err)
		}
		return (out[0] == 1) == (x < y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsZero(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(8)
	b.Output(b.IsZero(x))
	c := b.Build()
	for _, v := range []int64{0, 1, -1, 255} {
		out, _ := c.Eval(EncodeWord(v, 8))
		if (out[0] == 1) != (v == 0) {
			t.Errorf("IsZero(%d) = %d", v, out[0])
		}
	}
}

func TestMinMaxS(t *testing.T) {
	for _, tc := range [][2]int64{{3, 7}, {7, 3}, {-4, 2}, {2, -4}, {5, 5}} {
		gotMin := evalBinOp(t, 8, (*Builder).MinS, tc[0], tc[1])
		gotMax := evalBinOp(t, 8, (*Builder).MaxS, tc[0], tc[1])
		wantMin, wantMax := tc[0], tc[1]
		if wantMin > wantMax {
			wantMin, wantMax = wantMax, wantMin
		}
		if gotMin != wantMin || gotMax != wantMax {
			t.Errorf("minmax(%d,%d) = (%d,%d)", tc[0], tc[1], gotMin, gotMax)
		}
	}
}

func TestDivU(t *testing.T) {
	cases := [][2]uint64{{10, 3}, {100, 7}, {255, 1}, {0, 5}, {7, 255}, {128, 128}}
	for _, tc := range cases {
		b := NewBuilder()
		xw := b.InputWord(8)
		yw := b.InputWord(8)
		b.OutputWord(b.DivU(xw, yw))
		c := b.Build()
		in := append(EncodeWord(int64(tc[0]), 8), EncodeWord(int64(tc[1]), 8)...)
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeWordU(out); got != tc[0]/tc[1] {
			t.Errorf("%d/%d = %d, want %d", tc[0], tc[1], got, tc[0]/tc[1])
		}
	}
}

func TestDivUByZeroSaturates(t *testing.T) {
	b := NewBuilder()
	xw := b.InputWord(8)
	yw := b.InputWord(8)
	b.OutputWord(b.DivU(xw, yw))
	c := b.Build()
	in := append(EncodeWord(42, 8), EncodeWord(0, 8)...)
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeWordU(out); got != 255 {
		t.Errorf("42/0 = %d, want saturation to 255", got)
	}
}

func TestQuickDivU16(t *testing.T) {
	f := func(x, y uint16) bool {
		if y == 0 {
			return true
		}
		b := NewBuilder()
		xw := b.InputWord(16)
		yw := b.InputWord(16)
		b.OutputWord(b.DivU(xw, yw))
		c := b.Build()
		in := append(EncodeWord(int64(x), 16), EncodeWord(int64(y), 16)...)
		out, err := c.Eval(in)
		if err != nil {
			panic(err)
		}
		return DecodeWordU(out) == uint64(x/y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulFixed(t *testing.T) {
	// 16-bit words with 8 fractional bits: 1.5 * 2.5 = 3.75.
	const frac = 8
	enc := func(f float64) int64 { return int64(f * (1 << frac)) }
	cases := []struct{ x, y, want float64 }{
		{1.5, 2.5, 3.75},
		{-1.5, 2, -3},
		{0.5, 0.5, 0.25},
		{-2, -2, 4},
		{0, 3.5, 0},
	}
	for _, tc := range cases {
		b := NewBuilder()
		xw := b.InputWord(16)
		yw := b.InputWord(16)
		b.OutputWord(b.MulFixed(xw, yw, frac))
		c := b.Build()
		in := append(EncodeWord(enc(tc.x), 16), EncodeWord(enc(tc.y), 16)...)
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeWordS(out); got != enc(tc.want) {
			t.Errorf("%v*%v = %d, want %d", tc.x, tc.y, got, enc(tc.want))
		}
	}
}

func TestDivFixed(t *testing.T) {
	const frac = 8
	enc := func(f float64) int64 { return int64(f * (1 << frac)) }
	cases := []struct{ x, y, want float64 }{
		{1, 2, 0.5},
		{3, 4, 0.75},
		{-1, 2, -0.5},
		{1, -2, -0.5},
		{-1, -2, 0.5},
		{10, 5, 2},
	}
	for _, tc := range cases {
		b := NewBuilder()
		xw := b.InputWord(16)
		yw := b.InputWord(16)
		b.OutputWord(b.DivFixed(xw, yw, frac))
		c := b.Build()
		in := append(EncodeWord(enc(tc.x), 16), EncodeWord(enc(tc.y), 16)...)
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeWordS(out); got != enc(tc.want) {
			t.Errorf("%v/%v = %d, want %d", tc.x, tc.y, got, enc(tc.want))
		}
	}
}

func TestSumWords(t *testing.T) {
	b := NewBuilder()
	words := make([]Word, 5)
	for i := range words {
		words[i] = b.InputWord(16)
	}
	b.OutputWord(b.SumWords(words))
	c := b.Build()
	var in []uint8
	want := int64(0)
	for i := 0; i < 5; i++ {
		v := int64(i*100 - 150)
		want += v
		in = append(in, EncodeWord(v, 16)...)
	}
	out, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeWordS(out); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestShifts(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(8)
	b.OutputWord(b.ShiftLeftConst(x, 2))
	b.OutputWord(b.ShiftRightArithConst(x, 2))
	c := b.Build()
	out, err := c.Eval(EncodeWord(-20, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeWordS(out[:8]); got != int64(int8(-20<<2)) {
		t.Errorf("-20<<2 = %d", got)
	}
	if got := DecodeWordS(out[8:]); got != -5 {
		t.Errorf("-20>>2 = %d, want -5", got)
	}
}

func TestRoundsSchedule(t *testing.T) {
	// A chain of ANDs must produce one round per AND; parallel ANDs share a
	// round.
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	z := b.Input()
	a1 := b.And(x, y)   // round 1
	a2 := b.And(x, z)   // round 1
	a3 := b.And(a1, a2) // round 2
	b.Output(a3)
	c := b.Build()
	if c.Depth() != 2 {
		t.Errorf("depth = %d, want 2", c.Depth())
	}
	if len(c.Rounds[1].And) != 2 {
		t.Errorf("round 1 has %d ANDs, want 2", len(c.Rounds[1].And))
	}
	if len(c.Rounds[2].And) != 1 {
		t.Errorf("round 2 has %d ANDs, want 1", len(c.Rounds[2].And))
	}
	if c.NumAnd != 3 {
		t.Errorf("NumAnd = %d, want 3", c.NumAnd)
	}
}

func TestBuildEliminatesDeadGates(t *testing.T) {
	// Dead gates are interleaved with live ones so that renumbering has to
	// remap operands, and the dead chain is deeper than the live path so
	// its rounds must vanish from the schedule too.
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	z := b.Input()
	a := b.And(x, y)       // live, round 1
	d1 := b.And(x, z)      // dead
	e := b.Xor(a, z)       // live
	d2 := b.And(d1, y)     // dead, round 2
	f := b.And(e, x)       // live, round 2
	b.And(b.Xor(d2, f), z) // dead, round 3
	b.Output(f)
	b.Output(y)
	b.Output(WireOne)
	c := b.Build()

	if len(c.Gates) != 3 || c.NumAnd != 2 {
		t.Fatalf("kept %d gates (%d AND), want 3 (2 AND)", len(c.Gates), c.NumAnd)
	}
	if c.Depth() != 2 {
		t.Errorf("depth = %d, want 2", c.Depth())
	}
	scheduled := 0
	for _, r := range c.Rounds {
		scheduled += len(r.And) + len(r.Local)
	}
	if scheduled != len(c.Gates) {
		t.Errorf("schedule holds %d gates, circuit has %d", scheduled, len(c.Gates))
	}
	for v := 0; v < 8; v++ {
		in := []uint8{uint8(v & 1), uint8(v >> 1 & 1), uint8(v >> 2 & 1)}
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		want := []uint8{(in[0]&in[1] ^ in[2]) & in[0], in[1], 1}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("inputs %v: output %d = %d, want %d", in, i, out[i], want[i])
			}
		}
	}
}

func TestEvalRejectsBadInputs(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	b.Output(x)
	c := b.Build()
	if _, err := c.Eval([]uint8{}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := c.Eval([]uint8{2}); err == nil {
		t.Error("non-bit input accepted")
	}
}

func TestEncodeDecodeWord(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1234, -1234, 32767, -32768} {
		bits := EncodeWord(v, 16)
		if got := DecodeWordS(bits); got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
	if got := DecodeWordU(EncodeWord(-1, 8)); got != 255 {
		t.Errorf("DecodeWordU(-1, 8) = %d", got)
	}
}

func TestAdderGateCount(t *testing.T) {
	// A W-bit ripple adder needs about W AND gates — verify we are not
	// generating a quadratic blowup.
	b := NewBuilder()
	x := b.InputWord(32)
	y := b.InputWord(32)
	b.OutputWord(b.Add(x, y))
	c := b.Build()
	if c.NumAnd > 40 {
		t.Errorf("32-bit adder uses %d AND gates", c.NumAnd)
	}
}

func BenchmarkBuildMul32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := NewBuilder()
		x := bd.InputWord(32)
		y := bd.InputWord(32)
		bd.OutputWord(bd.Mul(x, y))
		bd.Build()
	}
}

func BenchmarkEvalMul32(b *testing.B) {
	bd := NewBuilder()
	x := bd.InputWord(32)
	y := bd.InputWord(32)
	bd.OutputWord(bd.Mul(x, y))
	c := bd.Build()
	in := append(EncodeWord(12345, 32), EncodeWord(-6789, 32)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPackedRoundsMatchSchedule(t *testing.T) {
	// The packed layout must be a gather of Rounds: same AND gates in the
	// same order, with operand and output wires matching Gates.
	b := NewBuilder()
	x := b.InputWord(12)
	y := b.InputWord(12)
	b.OutputWord(b.Mul(x, y))
	b.OutputWord(b.DivU(x, y))
	c := b.Build()

	pr := c.PackedRounds()
	if len(pr) != len(c.Rounds) {
		t.Fatalf("packed layout has %d rounds, schedule %d", len(pr), len(c.Rounds))
	}
	nAnd := 0
	for r, round := range c.Rounds {
		if len(pr[r].A) != len(round.And) || len(pr[r].B) != len(round.And) || len(pr[r].Out) != len(round.And) {
			t.Fatalf("round %d: packed batch sizes %d/%d/%d, want %d",
				r, len(pr[r].A), len(pr[r].B), len(pr[r].Out), len(round.And))
		}
		for k, gi := range round.And {
			g := c.Gates[gi]
			if g.Kind != AND {
				t.Fatalf("round %d entry %d: gate %d is %v", r, k, gi, g.Kind)
			}
			if pr[r].A[k] != g.A || pr[r].B[k] != g.B || pr[r].Out[k] != c.gateOut(gi) {
				t.Fatalf("round %d entry %d: packed wires (%d,%d,%d), gate has (%d,%d,%d)",
					r, k, pr[r].A[k], pr[r].B[k], pr[r].Out[k], g.A, g.B, c.gateOut(gi))
			}
			nAnd++
		}
	}
	if nAnd != c.NumAnd {
		t.Errorf("packed layout covers %d AND gates, circuit has %d", nAnd, c.NumAnd)
	}
	// The cache must be stable across calls.
	if &c.PackedRounds()[0] != &pr[0] {
		t.Error("PackedRounds rebuilt on second call")
	}
}
