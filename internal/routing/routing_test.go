package routing

import (
	"slices"
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("Set/Get wrong")
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	other := NewBitset(130)
	other.Set(5)
	b.Or(other)
	if !b.Get(5) || b.Count() != 4 {
		t.Error("Or wrong")
	}
	if b.Full(130) {
		t.Error("Full on sparse set")
	}
	full := NewBitset(70)
	for i := 0; i < 70; i++ {
		full.Set(i)
	}
	if !full.Full(70) {
		t.Error("Full(70) should hold")
	}
	if !b.Intersects(other) {
		t.Error("Intersects missed shared bit")
	}
	empty := NewBitset(130)
	if b.Intersects(empty) {
		t.Error("Intersects with empty set")
	}
	b.Clear()
	if b.Count() != 0 {
		t.Error("Clear failed")
	}
}

func TestBitsetFullWordBoundary(t *testing.T) {
	b := NewBitset(64)
	for i := 0; i < 64; i++ {
		b.Set(i)
	}
	if !b.Full(64) {
		t.Error("Full(64) at exact word boundary")
	}
}

func TestUpDownCFT(t *testing.T) {
	c, err := topology.NewCFT(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ud := New(c)
	if !ud.Routable() {
		t.Fatal("CFT must be up/down routable")
	}
	// In the radix-4 3-level CFT, leaves 2i and 2i+1 share their level-2
	// parents (same pod, turn at level 2 = 1 up hop); other pairs turn at
	// the roots (2 up hops).
	if got := ud.MinTurn(0, 1); got != 1 {
		t.Errorf("MinTurn(0,1) = %d, want 1", got)
	}
	if got := ud.MinTurn(0, 2); got != 2 {
		t.Errorf("MinTurn(0,2) = %d, want 2", got)
	}
	if got := ud.MinTurn(3, 3); got != 0 {
		t.Errorf("MinTurn(3,3) = %d, want 0", got)
	}
}

// checkPath validates that p is a correct up/down path from leaf src to
// leaf dst: strictly up for the first half, strictly down for the second,
// every hop a real link.
func checkPath(t *testing.T, c *topology.Clos, p []int32, src, dst int) {
	t.Helper()
	if p == nil {
		t.Fatal("nil path")
	}
	if p[0] != c.SwitchID(1, src) || p[len(p)-1] != c.SwitchID(1, dst) {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	if len(p)%2 == 0 {
		t.Fatalf("up/down path must have odd switch count, got %d", len(p))
	}
	turn := len(p) / 2
	for i := 0; i < len(p)-1; i++ {
		la, lb := c.LevelOf(p[i]), c.LevelOf(p[i+1])
		if i < turn && lb != la+1 {
			t.Fatalf("hop %d should go up: %d(L%d) -> %d(L%d)", i, p[i], la, p[i+1], lb)
		}
		if i >= turn && lb != la-1 {
			t.Fatalf("hop %d should go down: %d(L%d) -> %d(L%d)", i, p[i], la, p[i+1], lb)
		}
		linked := false
		next := c.Up(p[i])
		if i >= turn {
			next = c.Down(p[i])
		}
		for _, v := range next {
			if v == p[i+1] {
				linked = true
				break
			}
		}
		if !linked {
			t.Fatalf("hop %d not a link: %d -> %d", i, p[i], p[i+1])
		}
	}
}

func TestPathValidOnCFTAndOFT(t *testing.T) {
	r := rng.New(61)
	cft, _ := topology.NewCFT(8, 3)
	oft, _ := topology.NewOFT(3, 2)
	for _, c := range []*topology.Clos{cft, oft} {
		ud := New(c)
		n1 := c.LevelSize(1)
		for trial := 0; trial < 100; trial++ {
			src, dst := r.Intn(n1), r.Intn(n1)
			if src == dst {
				continue
			}
			p := ud.Path(src, dst, r)
			checkPath(t, c, p, src, dst)
			if len(p)-1 != 2*ud.MinTurn(src, dst) {
				t.Fatalf("path length %d != 2*MinTurn %d", len(p)-1, 2*ud.MinTurn(src, dst))
			}
		}
	}
}

func TestPathECMPSpread(t *testing.T) {
	// Between distant leaves of an 8-ary CFT there are many shortest
	// up/down paths; random selection should hit several distinct ones.
	c, _ := topology.NewCFT(8, 3)
	ud := New(c)
	r := rng.New(62)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		p := ud.Path(0, c.LevelSize(1)-1, r)
		key := ""
		for _, v := range p {
			key += string(rune(v)) + ","
		}
		seen[key] = true
	}
	if len(seen) < 4 {
		t.Errorf("ECMP explored only %d distinct paths", len(seen))
	}
}

func TestUpDownUnderFaults(t *testing.T) {
	c, err := topology.NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ud := New(c)
	if !ud.Routable() {
		t.Fatal("fresh CFT should be routable")
	}
	// Cut every up-link of leaf 0: it can no longer reach anyone.
	leaf0 := c.SwitchID(1, 0)
	for _, up := range append([]int32(nil), c.Up(leaf0)...) {
		c.RemoveLink(leaf0, up)
	}
	ud.Rebuild()
	if ud.Routable() {
		t.Error("network should not be routable after isolating a leaf")
	}
	n1 := c.LevelSize(1)
	if got := ud.UnroutablePairs(0); got != n1-1 {
		t.Errorf("UnroutablePairs = %d, want %d", got, n1-1)
	}
	if got := ud.UnroutablePairs(3); got != 3 {
		t.Errorf("UnroutablePairs with limit = %d, want 3", got)
	}
	if ud.MinTurn(0, 1) != -1 {
		t.Error("MinTurn should be -1 for isolated leaf")
	}
	if ud.Path(0, 1, rng.New(1)) != nil {
		t.Error("Path should be nil for isolated leaf")
	}
}

func TestAverageShortestUpDown(t *testing.T) {
	c, _ := topology.NewCFT(4, 3)
	ud := New(c)
	r := rng.New(63)
	mean, routable := ud.AverageShortestUpDown(2000, r)
	if routable != 1.0 {
		t.Errorf("routable fraction = %v, want 1", routable)
	}
	// 8 leaves: 1 same-pod partner (distance 2), 6 remote leaves (distance 4):
	// expected mean = (1*2 + 6*4)/7 ≈ 3.714.
	if mean < 3.4 || mean > 4.0 {
		t.Errorf("mean up/down distance = %v, want ≈3.71", mean)
	}
}

func TestNextDownUniform(t *testing.T) {
	// In a 2-level CFT every root reaches every leaf through exactly one
	// child, so NextDownPort must be deterministic.
	c, _ := topology.NewCFT(4, 2)
	ud := New(c)
	r := rng.New(64)
	root := c.SwitchID(2, 0)
	for dst := 0; dst < c.LevelSize(1); dst++ {
		first := ud.NextDownPort(root, dst, r)
		if first < 0 {
			t.Fatalf("root cannot reach leaf %d", dst)
		}
		for i := 0; i < 5; i++ {
			if got := ud.NextDownPort(root, dst, r); got != first {
				t.Fatalf("NextDownPort not unique in CFT: %d vs %d", got, first)
			}
		}
	}
}

// TestPathAtMatchesPath pins PathAt as the Path decomposition: with the same
// rng stream and the true turn level they must produce identical paths.
func TestPathAtMatchesPath(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	u := New(c)
	n := c.LevelSize(1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p1 := u.Path(src, dst, rng.New(42))
			p2 := u.PathAt(src, dst, u.MinTurn(src, dst), rng.New(42))
			if !slices.Equal(p1, p2) {
				t.Fatalf("paths differ for %d->%d: %v vs %v", src, dst, p1, p2)
			}
		}
	}
	if u.PathAt(0, 1, -1, rng.New(1)) != nil {
		t.Fatal("PathAt with negative turn should return nil")
	}
}
