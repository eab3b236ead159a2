package topology

import (
	"testing"
)

// TestEdgeSeqMatchesLinks pins the iterator contract: EdgeSeq yields exactly
// Links() in order, and the per-level LinkSeq runs concatenate to EdgeSeq.
func TestEdgeSeqMatchesLinks(t *testing.T) {
	c, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Links()
	var got []Link
	for l := range c.EdgeSeq() {
		got = append(got, l)
	}
	if len(got) != len(want) {
		t.Fatalf("EdgeSeq yielded %d links, Links has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EdgeSeq[%d] = %v, Links[%d] = %v", i, got[i], i, want[i])
		}
	}

	got = got[:0]
	for lev := 1; lev < c.Levels(); lev++ {
		for l := range c.LinkSeq(lev) {
			if c.LevelOf(l.A) != lev {
				t.Fatalf("LinkSeq(%d) yielded link from level %d", lev, c.LevelOf(l.A))
			}
			got = append(got, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("concatenated LinkSeq yielded %d links, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinkSeq concat[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Early break must stop the sequence cleanly.
	n := 0
	for range c.EdgeSeq() {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break consumed %d links, want 3", n)
	}
}

// TestCloneArenaIndependence checks Clone isolates mutation even though the
// sealed CSR base is shared: removing and re-adding links on the clone (the
// overlay path) leaves the original untouched.
func TestCloneArenaIndependence(t *testing.T) {
	c, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	wires := c.Wires()
	cp := c.Clone()
	links := cp.Links()
	for _, l := range links[:len(links)/2] {
		cp.RemoveLink(l.A, l.B)
	}
	cp.AddLink(links[0].A, links[0].B)
	cp.AddLink(links[0].A, links[0].B) // past pinned capacity on purpose
	if c.Wires() != wires {
		t.Fatalf("original wires changed: %d -> %d", wires, c.Wires())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("original invalid after clone mutation: %v", err)
	}
	orig := c.Links()
	if len(orig) != wires {
		t.Fatalf("original Links() length changed: %d, want %d", len(orig), wires)
	}
}

// TestAddLinkOverSealedLevels checks AddLink layers correctly over a store
// whose levels were sealed by an emitter: overlay lists extend the CSR rows
// without corrupting neighbouring switches.
func TestAddLinkOverSealedLevels(t *testing.T) {
	c, err := NewEmpty([]int{2, 2}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := c.WireLevel(1, 2)
	e.Link(c.SwitchID(1, 0), c.SwitchID(2, 0))
	e.Link(c.SwitchID(1, 1), c.SwitchID(2, 1))
	e.Seal()
	c.AddLink(c.SwitchID(1, 0), c.SwitchID(2, 1))
	if got := c.Up(c.SwitchID(1, 0)); len(got) != 2 || got[0] != c.SwitchID(2, 0) || got[1] != c.SwitchID(2, 1) {
		t.Fatalf("switch 0 up-links = %v, want sealed link then added link", got)
	}
	if got := c.Up(c.SwitchID(1, 1)); len(got) != 1 || got[0] != c.SwitchID(2, 1) {
		t.Fatalf("switch 1 up-links corrupted: %v", got)
	}
	if got := c.Down(c.SwitchID(2, 1)); len(got) != 2 || got[0] != c.SwitchID(1, 1) || got[1] != c.SwitchID(1, 0) {
		t.Fatalf("upper switch 1 down-links = %v, want sealed then added", got)
	}
	if c.Wires() != 3 {
		t.Fatalf("Wires() = %d, want 3", c.Wires())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEmitterOrderMatchesAddLink pins the stable-grouping contract: links
// emitted in an arbitrary interleaved order produce exactly the per-switch
// adjacency order a sequence of AddLink calls in the same order would.
func TestEmitterOrderMatchesAddLink(t *testing.T) {
	order := [][2]int{{1, 0}, {0, 1}, {1, 1}, {0, 0}, {2, 1}, {2, 0}}
	build := func(emit bool) *Clos {
		c, err := NewEmpty([]int{3, 2}, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if emit {
			e := c.WireLevel(1, len(order))
			for _, p := range order {
				e.Link(c.SwitchID(1, p[0]), c.SwitchID(2, p[1]))
			}
			e.Seal()
		} else {
			for _, p := range order {
				c.AddLink(c.SwitchID(1, p[0]), c.SwitchID(2, p[1]))
			}
		}
		return c
	}
	sealed, appended := build(true), build(false)
	for s := int32(0); s < int32(sealed.NumSwitches()); s++ {
		if got, want := sealed.Up(s), appended.Up(s); !equalInt32(got, want) {
			t.Fatalf("switch %d up: emitter %v, AddLink %v", s, got, want)
		}
		if got, want := sealed.Down(s), appended.Down(s); !equalInt32(got, want) {
			t.Fatalf("switch %d down: emitter %v, AddLink %v", s, got, want)
		}
	}
	if sealed.Wires() != appended.Wires() {
		t.Fatalf("wires: emitter %d, AddLink %d", sealed.Wires(), appended.Wires())
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceEdges is the canonical export order written out longhand: the
// per-switch upAt walk over every level. EdgeSeq must match it link for
// link.
func referenceEdges(c *Clos) []Link {
	var out []Link
	for level := 1; level < c.Levels(); level++ {
		lo := c.offset[level-1]
		for i := 0; i < c.levelSize[level-1]; i++ {
			s := lo + int32(i)
			for _, b := range c.upAt(level, i) {
				out = append(out, Link{s, b})
			}
		}
	}
	return out
}

// TestEdgeSeqFastPathMatchesReference pins EdgeSeq on a sealed build (no
// overlay, rows straight from the CSR store) and after churn (overlay rows)
// against the per-switch reference walk.
func TestEdgeSeqFastPathMatchesReference(t *testing.T) {
	c, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		want := referenceEdges(c)
		var got []Link
		for l := range c.EdgeSeq() {
			got = append(got, l)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: EdgeSeq yielded %d links, reference %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: EdgeSeq[%d] = %v, reference %v", label, i, got[i], want[i])
			}
		}
	}
	if c.ovl != nil {
		t.Fatal("freshly built CFT should have no overlay")
	}
	check("sealed")

	// Force the overlay while keeping the adjacency logically identical:
	// append a duplicate link, then remove one copy (swap-remove keeps a
	// same-valued entry in the slot). EdgeSeq must now read the overlay
	// rows and still agree with the reference walk.
	l := c.Links()[0]
	c.AddLink(l.A, l.B)
	c.RemoveLink(l.A, l.B)
	if c.ovl == nil {
		t.Fatal("mutation did not materialise the overlay")
	}
	check("overlay")
}
