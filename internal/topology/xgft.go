package topology

import "fmt"

// NewXGFT builds an extended generalized fat-tree XGFT(h; m; w): h switch
// levels above the terminals, where each level-i switch has m[i-1]
// down-links (terminals at level 1) and each level-i switch (i < h) has w[i]
// up-links. w[0] must be 1 (each terminal attaches to exactly one leaf).
//
// Level-i switches are labelled (a_1..a_i, c_{i+1}..c_h) with a_j < w[j-1]
// and c_j < m[j-1]; a level-i switch and a level-(i+1) switch are linked iff
// their labels agree everywhere except position i+1, where the child's
// c_{i+1} and the parent's a_{i+1} are free. Consecutive label groups
// therefore form complete bipartite K(m_{i+1}, w_{i+1}) blocks, which yields
// a fat-tree in the sense of Definition 3.2 with arities k_i = m[i-1].
func NewXGFT(m, w []int, radix int) (*Clos, error) {
	sizes, err := XGFTLevelSizes(m, w)
	if err != nil {
		return nil, err
	}
	const maxSwitches = 64 << 20
	if TotalSwitches(sizes) > maxSwitches {
		return nil, fmt.Errorf("topology: XGFT too large (> %d switches)", maxSwitches)
	}
	c, err := NewEmpty(sizes, m[0], radix)
	if err != nil {
		return nil, err
	}
	declareXGFTLeafRanges(c, m, w, sizes)
	wireXGFT(c, m, w, sizes)
	return c, nil
}

// XGFTLevelSizes validates the XGFT(h; m; w) parameters and returns its
// level sizes N_i = ∏_{j<=i} w_j · ∏_{j>i} m_j, the counts NewXGFT
// allocates. Products saturate at math.MaxInt instead of wrapping, so a
// size limit checked against TotalSwitches cannot be slipped past by
// overflow.
func XGFTLevelSizes(m, w []int) ([]int, error) {
	h := len(m)
	if h < 2 || len(w) != h {
		return nil, fmt.Errorf("topology: XGFT needs len(m) == len(w) >= 2, got %d and %d", len(m), len(w))
	}
	if w[0] != 1 {
		return nil, fmt.Errorf("topology: XGFT requires w[0] == 1, got %d", w[0])
	}
	for i := 0; i < h; i++ {
		if m[i] <= 0 || w[i] <= 0 {
			return nil, fmt.Errorf("topology: XGFT parameters must be positive (m[%d]=%d, w[%d]=%d)", i, m[i], i, w[i])
		}
	}
	// sizes[i-1] first holds the suffix product ∏_{j>i} m_j, then takes the
	// prefix product of w on the way up.
	sizes := make([]int, h)
	sizes[h-1] = 1
	for i := h - 1; i >= 1; i-- {
		sizes[i-1] = mulSat(sizes[i], m[i])
	}
	prefix := 1
	for i := 0; i < h; i++ {
		prefix = mulSat(prefix, w[i])
		sizes[i] = mulSat(sizes[i], prefix)
	}
	return sizes, nil
}

// wireXGFT emits the complete-bipartite block links of the XGFT label
// scheme, one sealed level pair at a time.
func wireXGFT(c *Clos, m, w, sizes []int) {
	h := len(m)
	// Wire levels i -> i+1 for i = 1..h-1.
	for i := 1; i < h; i++ {
		// Parent label radices: a_1..a_{i+1}, c_{i+2}..c_h.
		ry := labelRadices(m, w, i+1)
		// Child label radices: a_1..a_i, c_{i+1}..c_h.
		rx := labelRadices(m, w, i)
		dy := make([]int, h)
		dx := make([]int, h)
		e := c.WireLevel(i, sizes[i]*m[i])
		for p := 0; p < sizes[i]; p++ {
			decodeMixed(p, ry, dy)
			copy(dx, dy)
			for cc := 0; cc < m[i]; cc++ {
				dx[i] = cc // position i (0-based) holds the free digit
				child := encodeMixed(dx, rx)
				e.Link(c.SwitchID(i, child), c.SwitchID(i+1, p))
			}
		}
		e.Seal()
	}
}

// declareXGFTLeafRanges computes, for every switch, the contiguous
// descendant leaf interval its label implies and installs it on the Clos
// (LeafRange). In the label scheme a level-i switch shares its c_{i+1}..c_h
// digits with exactly the leaves below it while positions 1..i-1 range
// freely, and those free positions are the least-significant leaf-index
// digits — so the descendants are the interval [base, base+blk) where blk =
// ∏ m[1..i-1] and base weighs the shared digits. The intervals follow
// from the labels alone, so NewXGFT declares them before wiring. Routing
// uses the declared intervals to build descendant sets as single runs;
// the hybrid-vs-bitset equivalence property tests in internal/routing pin
// that the declared ranges match the wired graph.
func declareXGFTLeafRanges(c *Clos, m, w, sizes []int) {
	h := len(m)
	lr := make([]int32, 2*c.NumSwitches())
	// wl[j] = ∏ m[1..j-1]: the leaf-index weight of label position j, and
	// the descendant block size of a level-j switch.
	wl := make([]int, h+1)
	wl[1] = 1
	for j := 2; j <= h; j++ {
		wl[j] = wl[j-1] * m[j-1]
	}
	dy := make([]int, h)
	for i := 1; i <= h; i++ {
		ry := labelRadices(m, w, i)
		for p := 0; p < sizes[i-1]; p++ {
			decodeMixed(p, ry, dy)
			base := 0
			for j := i; j < h; j++ {
				base += dy[j] * wl[j]
			}
			s := c.SwitchID(i, p)
			lr[2*s] = int32(base)
			lr[2*s+1] = int32(base + wl[i])
		}
	}
	c.setLeafRanges(lr)
}

// labelRadices returns the digit radices of a level-i switch label:
// positions 0..i-1 hold a_1..a_i (radices w), positions i..h-1 hold
// c_{i+1}..c_h (radices m).
func labelRadices(m, w []int, i int) []int {
	h := len(m)
	r := make([]int, h)
	for j := 0; j < i; j++ {
		r[j] = w[j]
	}
	for j := i; j < h; j++ {
		r[j] = m[j]
	}
	return r
}

// decodeMixed writes the least-significant-first mixed-radix digits of v
// into out.
func decodeMixed(v int, radices, out []int) {
	for i, r := range radices {
		out[i] = v % r
		v /= r
	}
}

// encodeMixed is the inverse of decodeMixed.
func encodeMixed(digits, radices []int) int {
	v := 0
	for i := len(radices) - 1; i >= 0; i-- {
		v = v*radices[i] + digits[i]
	}
	return v
}

// NewCFT builds the R-commodity fat-tree (R-port l-tree): the radix-regular
// fat-tree with arities k_1 = ... = k_{l-1} = R/2 and k_l = R. It connects
// T = 2(R/2)^l terminals (§3).
func NewCFT(radix, levels int) (*Clos, error) {
	return NewCFTWithTerminals(radix, levels, radix/2)
}

// NewCFTWithTerminals builds the R-commodity fat-tree wiring but attaches
// only termsPerLeaf <= R/2 compute nodes per leaf switch. The paper's §5/§6
// intermediate scenario uses exactly this: a 4-level CFT "with free ports
// for future expansion" serving fewer terminals than its capacity.
func NewCFTWithTerminals(radix, levels, termsPerLeaf int) (*Clos, error) {
	m, w, err := CFTShape(radix, levels, termsPerLeaf)
	if err != nil {
		return nil, err
	}
	return NewXGFT(m, w, radix)
}

// CFTShape returns the XGFT parameters (m, w) that NewCFTWithTerminals
// wires: m = (termsPerLeaf, R/2, ..., R/2, R), w = (1, R/2, ..., R/2).
func CFTShape(radix, levels, termsPerLeaf int) (m, w []int, err error) {
	if radix < 2 || radix%2 != 0 {
		return nil, nil, fmt.Errorf("topology: CFT radix must be even and >= 2, got %d", radix)
	}
	if levels < 2 {
		return nil, nil, fmt.Errorf("topology: CFT needs >= 2 levels, got %d", levels)
	}
	half := radix / 2
	if termsPerLeaf < 1 || termsPerLeaf > half {
		return nil, nil, fmt.Errorf("topology: terminals per leaf %d out of [1, R/2=%d]", termsPerLeaf, half)
	}
	m = make([]int, levels)
	w = make([]int, levels)
	for i := range m {
		m[i] = half
		w[i] = half
	}
	m[0] = termsPerLeaf
	m[levels-1] = radix
	w[0] = 1
	return m, w, nil
}

// NewKaryTree builds the k-ary l-tree of Petrini and Vanneschi: l levels of
// k^{l-1} switches, k terminals per leaf, T = k^l terminals. Its switches
// have radix 2k.
func NewKaryTree(k, levels int) (*Clos, error) {
	m, w, err := KaryTreeShape(k, levels)
	if err != nil {
		return nil, err
	}
	return NewXGFT(m, w, 2*k)
}

// KaryTreeShape returns the XGFT parameters (m, w) that NewKaryTree wires:
// m = (k, ..., k), w = (1, k, ..., k).
func KaryTreeShape(k, levels int) (m, w []int, err error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("topology: k-ary tree needs k >= 1, got %d", k)
	}
	if levels < 2 {
		return nil, nil, fmt.Errorf("topology: k-ary tree needs >= 2 levels, got %d", levels)
	}
	m = make([]int, levels)
	w = make([]int, levels)
	for i := range m {
		m[i] = k
		w[i] = k
	}
	w[0] = 1
	return m, w, nil
}
