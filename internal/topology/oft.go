package topology

import (
	"fmt"
	"math"

	"rfclos/internal/gf"
)

// NewOFT builds the l-level orthogonal fat-tree of order q (q a prime
// power), the cost-optimal highly scalable fat-tree of Valerio et al. used
// as a baseline in §3–§7. It is a radix-regular fat-tree with radix
// R = 2(q+1), arities k_1 = ... = k_{l-1} = q²+q+1 and k_l = 2(q²+q+1),
// connecting T = 2(q+1)(q²+q+1)^{l-1} terminals.
//
// Construction. Let n = q²+q+1 and let PG(2,q) be the projective plane with
// point set and line set of size n. Switches are labelled:
//
//	level i <= l-1:  (s, x_1..x_{i-1}, p_i..p_{l-1})   s ∈ {0,1}, x_j lines, p_j points
//	level l:         (x_1..x_{l-1})
//
// A level-i switch links to the level-(i+1) switch agreeing on every other
// digit iff point p_i lies on line x_i (for i = l-1 the parent has no side
// digit, so both sides connect). Every switch below the top then has q+1
// up-links and q+1 down-links; roots have 2(q+1) down-links. Fixing the pair
// (s, p_{l-1}) isolates the k_l = 2n disjoint (l-1)-level subtrees required
// by Definition 3.2, and for l = 2 the construction is exactly Figure 2 of
// the paper. Minimal up/down routes between leaves whose point digits all
// differ are unique, reproducing the low path diversity the paper discusses.
func NewOFT(q, levels int) (*Clos, error) {
	if levels < 2 {
		return nil, fmt.Errorf("topology: OFT needs >= 2 levels, got %d", levels)
	}
	plane, err := gf.NewPlane(q)
	if err != nil {
		return nil, fmt.Errorf("topology: OFT order %d: %w", q, err)
	}
	n := plane.N
	sizes := OFTLevelSizes(q, levels)
	if sizes[levels-1] > 64<<20 {
		return nil, fmt.Errorf("topology: OFT(q=%d, l=%d) too large", q, levels)
	}
	c, err := NewEmpty(sizes, q+1, 2*(q+1))
	if err != nil {
		return nil, err
	}

	// Label encoding for levels 1..l-1: index = s + 2*mixed(d_1..d_{l-1})
	// where d_j is x_j for j < i and p_j for j >= i, every digit radix n.
	// Top level: index = mixed(x_1..x_{l-1}).
	digits := make([]int, levels-1)
	childDigits := make([]int, levels-1)

	// Levels i -> i+1 for i+1 <= l-1. Parent digit i (1-based label slot i,
	// 0-based slot i-1) is the line x_i; the child replaces it with a point
	// p_i on that line.
	for i := 1; i+1 <= levels-1; i++ {
		e := c.WireLevel(i, sizes[i]*(q+1))
		for pIdx := 0; pIdx < sizes[i]; pIdx++ {
			s := pIdx & 1
			decodeUniform(pIdx>>1, n, digits)
			line := digits[i-1]
			copy(childDigits, digits)
			for _, pt := range plane.LinePoints[line] {
				childDigits[i-1] = int(pt)
				child := s + 2*encodeUniform(childDigits, n)
				e.Link(c.SwitchID(i, child), c.SwitchID(i+1, pIdx))
			}
		}
		e.Seal()
	}
	// Level l-1 -> l: parent (x_1..x_{l-1}); children on both sides s with
	// p_{l-1} on x_{l-1}.
	topDigits := make([]int, levels-1)
	e := c.WireLevel(levels-1, sizes[levels-1]*2*(q+1))
	for pIdx := 0; pIdx < sizes[levels-1]; pIdx++ {
		decodeUniform(pIdx, n, topDigits)
		line := topDigits[levels-2]
		copy(childDigits, topDigits)
		for _, pt := range plane.LinePoints[line] {
			childDigits[levels-2] = int(pt)
			base := encodeUniform(childDigits, n)
			for s := 0; s < 2; s++ {
				e.Link(c.SwitchID(levels-1, s+2*base), c.SwitchID(levels, pIdx))
			}
		}
	}
	e.Seal()
	return c, nil
}

// decodeUniform writes the base-n digits of v (least significant first).
func decodeUniform(v, n int, out []int) {
	for i := range out {
		out[i] = v % n
		v /= n
	}
}

func encodeUniform(digits []int, n int) int {
	v := 0
	for i := len(digits) - 1; i >= 0; i-- {
		v = v*n + digits[i]
	}
	return v
}

// OFTLevelSizes returns the level sizes NewOFT allocates for order q >= 0
// and levels >= 2: 2n^{l-1} for levels 1..l-1 and n^{l-1} for the top,
// n = q²+q+1. Products saturate at math.MaxInt instead of wrapping.
func OFTLevelSizes(q, levels int) []int {
	n := mulSat(q, q+1)
	if n < math.MaxInt {
		n++
	}
	nPow := 1
	for i := 0; i < levels-1; i++ {
		nPow = mulSat(nPow, n)
	}
	sizes := make([]int, levels)
	for i := 0; i < levels-1; i++ {
		sizes[i] = mulSat(2, nPow)
	}
	sizes[levels-1] = nPow
	return sizes
}

// OFTTerminals returns T for an l-level OFT of order q without building it.
func OFTTerminals(q, levels int) int {
	n := q*q + q + 1
	t := 2 * (q + 1)
	for i := 0; i < levels-1; i++ {
		t *= n
	}
	return t
}
