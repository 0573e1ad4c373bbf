package circuit

import (
	"math/big"
	"math/rand"
	"testing"
)

// dividerOperands returns signed width-bit test operands: the edge values
// 0, 1, −1, min and max, then random values whose magnitudes spread over
// every bit length so quotients are not all 0 or 1.
func dividerOperands(rng *rand.Rand, width, random int) []int64 {
	lo := int64(-1) << (width - 1)
	ops := []int64{0, 1, -1, lo, -(lo + 1)}
	for i := 0; i < random; i++ {
		v := rng.Int63() >> (63 - 1 - rng.Intn(width))
		if rng.Intn(2) == 0 {
			v = -v
		}
		ops = append(ops, DecodeWordS(EncodeWord(v, width)))
	}
	return ops
}

// unsignedOf returns v's width-bit two's-complement encoding as an
// unsigned integer.
func unsignedOf(v int64, width int) *big.Int {
	return new(big.Int).SetUint64(DecodeWordU(EncodeWord(v, width)))
}

// signedOf reduces u modulo 2^width and reads it as two's complement.
func signedOf(u *big.Int, width int) int64 {
	mod := new(big.Int).Lsh(big.NewInt(1), uint(width))
	r := new(big.Int).Mod(u, mod)
	return DecodeWordS(EncodeWord(int64(r.Uint64()), width))
}

// TestDividerMatchesIntegerArithmetic checks SubPrefixBorrow, DivU and
// DivFixed against plain integer arithmetic on edge and random operands,
// including the zero divisor, at several widths.
func TestDividerMatchesIntegerArithmetic(t *testing.T) {
	const frac = 8
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{8, 16, 48} {
		b := NewBuilder()
		x := b.InputWord(width)
		y := b.InputWord(width)
		diff, borrow := b.SubPrefixBorrow(x, y)
		b.OutputWord(diff)
		b.Output(borrow)
		b.OutputWord(b.DivU(x, y))
		b.OutputWord(b.DivFixed(x, y, frac))
		c := b.Build()

		ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(width+frac)), big.NewInt(1))
		ops := dividerOperands(rng, width, 24)
		for _, xv := range ops {
			for _, yv := range ops {
				out, err := c.Eval(append(EncodeWord(xv, width), EncodeWord(yv, width)...))
				if err != nil {
					t.Fatal(err)
				}
				ux, uy := unsignedOf(xv, width), unsignedOf(yv, width)

				if got, want := DecodeWordS(out[:width]), signedOf(new(big.Int).Sub(ux, uy), width); got != want {
					t.Errorf("w=%d: SubPrefixBorrow(%d, %d) diff = %d, want %d", width, xv, yv, got, want)
				}
				if got, want := out[width] == 1, ux.Cmp(uy) < 0; got != want {
					t.Errorf("w=%d: SubPrefixBorrow(%d, %d) borrow = %v, want %v", width, xv, yv, got, want)
				}

				// DivU: floor division; a zero divisor gives all ones.
				wantQ := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(width)), big.NewInt(1))
				if uy.Sign() != 0 {
					wantQ.Quo(ux, uy)
				}
				if got := DecodeWordU(out[width+1 : 2*width+1]); got != wantQ.Uint64() {
					t.Errorf("w=%d: DivU(%v, %v) = %d, want %v", width, ux, uy, got, wantQ)
				}

				// DivFixed: (|x| << frac) / |y| over width+frac bits,
				// truncated to width, negated when the signs differ.
				ax, ay := new(big.Int).Abs(big.NewInt(xv)), new(big.Int).Abs(big.NewInt(yv))
				aq := new(big.Int).Set(ones)
				if ay.Sign() != 0 {
					aq.Quo(new(big.Int).Lsh(ax, frac), ay)
				}
				if (xv < 0) != (yv < 0) {
					aq.Neg(aq)
				}
				if got, want := DecodeWordS(out[2*width+1:]), signedOf(aq, width); got != want {
					t.Errorf("w=%d: DivFixed(%d, %d) = %d, want %d", width, xv, yv, got, want)
				}
			}
		}
	}
}
