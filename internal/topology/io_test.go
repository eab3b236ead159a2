package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// closJSON is WriteJSON's schema. WriteJSON streams it by hand (its output
// is pinned byte-identical to encoding/json's by TestStreamedExportGoldens);
// this struct is the decode side.
type closJSON struct {
	Radix        int      `json:"radix"`
	TermsPerLeaf int      `json:"terms_per_leaf"`
	LevelSizes   []int    `json:"level_sizes"`
	Links        [][2]int `json:"links"`
}

// ReadJSON deserialises a network written by WriteJSON, validating its
// structure. It is WriteJSON's round-trip oracle and has no caller outside
// the tests, so it is not an input boundary of the shipped binaries and is
// not fuzzed.
func ReadJSON(r io.Reader) (*Clos, error) {
	var in closJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("topology: decoding: %w", err)
	}
	c, err := NewEmpty(in.LevelSizes, in.TermsPerLeaf, in.Radix)
	if err != nil {
		return nil, err
	}
	// Bucket links by lower-endpoint level, then seal one emitter per level
	// pair. Bucketing preserves file order within each pair, and the
	// emitter's stable grouping preserves order within each switch, so the
	// loaded adjacency matches what link-by-link AddLink produced — but the
	// graph lands in the immutable CSR base instead of the overlay.
	total := int32(c.NumSwitches())
	buckets := make([][]int32, c.Levels())
	for i, l := range in.Links {
		a, b := int32(l[0]), int32(l[1])
		if a < 0 || a >= total || b < 0 || b >= total {
			return nil, fmt.Errorf("topology: link %d (%d-%d) out of range", i, a, b)
		}
		la := c.LevelOf(a)
		if c.LevelOf(b) != la+1 {
			return nil, fmt.Errorf("topology: link %d (%d-%d) not between adjacent levels", i, a, b)
		}
		buckets[la-1] = append(buckets[la-1], a, b)
	}
	for lev := 1; lev < c.Levels(); lev++ {
		pairs := buckets[lev-1]
		e := c.WireLevel(lev, len(pairs)/2)
		for j := 0; j+1 < len(pairs); j += 2 {
			e.Link(pairs[j], pairs[j+1])
		}
		e.Seal()
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("topology: loaded network invalid: %w", err)
	}
	return c, nil
}

func TestJSONRoundTrip(t *testing.T) {
	orig, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Radix != orig.Radix || loaded.TermsPerLeaf != orig.TermsPerLeaf ||
		loaded.Levels() != orig.Levels() || loaded.Terminals() != orig.Terminals() {
		t.Errorf("metadata mismatch: %v vs %v", loaded, orig)
	}
	a, b := orig.Links(), loaded.Links()
	if len(a) != len(b) {
		t.Fatalf("link counts differ: %d vs %d", len(a), len(b))
	}
	seen := map[Link]bool{}
	for _, l := range a {
		seen[l] = true
	}
	for _, l := range b {
		if !seen[l] {
			t.Fatalf("link %v not in original", l)
		}
	}
	if err := loaded.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`not json`,
		`{"radix":4,"terms_per_leaf":2,"level_sizes":[2,2],"links":[[0,99]]}`, // out of range
		`{"radix":4,"terms_per_leaf":2,"level_sizes":[2,2],"links":[[0,1]]}`,  // same level link
		`{"radix":4,"terms_per_leaf":2,"level_sizes":[2,2],"links":[]}`,       // unwired (invalid Clos)
	}
	for i, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestWriteEdgeList(t *testing.T) {
	c, err := NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != c.Wires() {
		t.Errorf("edge list has %d lines, want %d", len(lines), c.Wires())
	}
	if !strings.Contains(lines[0], " ") {
		t.Errorf("malformed line %q", lines[0])
	}
}

func TestWriteDOT(t *testing.T) {
	c, err := NewOFT(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph clos {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Errorf("malformed DOT output:\n%s", out)
	}
	if got := strings.Count(out, " -- "); got != c.Wires() {
		t.Errorf("DOT has %d edges, want %d", got, c.Wires())
	}
	if got := strings.Count(out, "rank=same"); got != c.Levels() {
		t.Errorf("DOT has %d ranks, want %d", got, c.Levels())
	}
}
