package circuit

// Depth-optimized arithmetic. GMW needs one communication round per AND
// level (§5.2's latencies are depth-bound), so circuit depth — not just
// gate count — drives wall-clock time on real networks. The word
// combinators in circuit.go use ripple-carry adders (depth ≈ width, minimal
// gates); this file provides Sklansky parallel-prefix equivalents with
// depth ≈ log₂(width) at ~2× the AND gates. DivU always subtracts through
// SubPrefixBorrow, since its per-bit subtract sits on the divider's
// critical path; the ablation benchmarks (BenchmarkAdderAblation) quantify
// the trade-off for plain addition.

// AddPrefix returns x+y mod 2^width using a Sklansky parallel-prefix
// carry computation: depth O(log width) instead of O(width).
func (b *Builder) AddPrefix(x, y Word) Word {
	sum, _ := b.AddPrefixCarry(x, y)
	return sum
}

// AddPrefixCarry returns x+y and the carry-out, computed with a parallel
// prefix over (generate, propagate) pairs.
func (b *Builder) AddPrefixCarry(x, y Word) (Word, Wire) {
	return b.addPrefix(x, y, WireZero)
}

// SubPrefix returns x−y using the prefix adder.
func (b *Builder) SubPrefix(x, y Word) Word {
	diff, _ := b.SubPrefixBorrow(x, y)
	return diff
}

// SubPrefixBorrow returns x−y and a borrow bit that is 1 iff x < y as
// unsigned integers, computing x + ¬y + 1 with the prefix adder: depth
// O(log width) where SubBorrow's ripple chain is O(width).
func (b *Builder) SubPrefixBorrow(x, y Word) (Word, Wire) {
	notY := make(Word, len(y))
	for i := range y {
		notY[i] = b.Not(y[i])
	}
	diff, carry := b.addPrefix(x, notY, WireOne)
	return diff, b.Not(carry)
}

// addPrefix returns x+y+cin and the carry-out. The carry-in folds into
// position 0's generate, g₀ ⊕ p₀·cin = maj(x₀, y₀, cin), so one scan
// serves both addition (cin = 0) and subtraction (cin = 1).
func (b *Builder) addPrefix(x, y Word, cin Wire) (Word, Wire) {
	mustSameWidth(x, y)
	n := len(x)
	if n == 0 {
		return Word{}, cin
	}
	g := make([]Wire, n)
	p := make([]Wire, n)
	prop := make([]Wire, n)
	for i := 0; i < n; i++ {
		g[i] = b.And(x[i], y[i])
		prop[i] = b.Xor(x[i], y[i])
	}
	copy(p, prop)
	g[0] = b.Xor(g[0], b.And(prop[0], cin))
	b.sklansky(g, p)
	out := make(Word, n)
	out[0] = b.Xor(prop[0], cin)
	for i := 1; i < n; i++ {
		out[i] = b.Xor(prop[i], g[i-1])
	}
	return out, g[n-1]
}

// PrefixAnd returns the running AND of bits: out[i] = bits[0] ∧ … ∧ bits[i],
// in depth ⌈log₂ len(bits)⌉.
func (b *Builder) PrefixAnd(bits []Wire) []Wire {
	g := make([]Wire, len(bits)) // all WireZero: no generates
	p := append([]Wire{}, bits...)
	b.sklansky(g, p)
	return p
}

// sklansky runs an in-place Sklansky parallel-prefix scan over
// (generate, propagate) pairs. Afterwards g[i] is the carry out of
// position i and p[i] is the AND of p[0..i]. With every g[i] = WireZero
// the generate half constant-folds away and the scan is a plain prefix-AND.
func (b *Builder) sklansky(g, p []Wire) {
	n := len(g)
	for stride := 1; stride < n; stride *= 2 {
		for block := stride; block < n; block += 2 * stride {
			pivot := block - 1 // last index of the left group
			for i := block; i < block+stride && i < n; i++ {
				// (g,p)[i] ∘ (g,p)[pivot]: g = g_i ∨ (p_i ∧ g_pivot),
				// written g_i ⊕ p_i·g_pivot because the two terms are
				// never both 1 (g_i = 1 forces p_i = 0).
				g[i] = b.Xor(g[i], b.And(p[i], g[pivot]))
				p[i] = b.And(p[i], p[pivot])
			}
		}
	}
}

// SumWordsTree adds words with a balanced tree of prefix adders: depth
// O(log(#words)·log(width)) instead of O(#words·width). Used by the
// aggregation circuit when many states are summed.
func (b *Builder) SumWordsTree(words []Word) Word {
	if len(words) == 0 {
		panic("circuit: SumWordsTree needs at least one word")
	}
	for len(words) > 1 {
		next := make([]Word, 0, (len(words)+1)/2)
		for i := 0; i+1 < len(words); i += 2 {
			next = append(next, b.AddPrefix(words[i], words[i+1]))
		}
		if len(words)%2 == 1 {
			next = append(next, words[len(words)-1])
		}
		words = next
	}
	return words[0]
}
