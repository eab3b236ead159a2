package service

import (
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// limitErr is the text every over-limit spec is rejected with.
var limitErr = fmt.Sprintf("exceeds the %d-switch serving limit", maxSwitches)

// TestSpecServingLimit checks that Normalize rejects every over-limit spec,
// including ones whose level sizes overflow int, before anything is built:
// the cache's builder fails the test if it is ever called.
func TestSpecServingLimit(t *testing.T) {
	c := NewCache(4, 0, func(sp Spec) (*Topology, error) {
		t.Errorf("built %s", sp.Canonical())
		return nil, fmt.Errorf("no build expected")
	}, nil)
	over := []Spec{
		{Kind: "xgft", M: []int{2, 2048, 1100}, W: []int{1, 1, 1}},             // 2,253,801 switches
		{Kind: "cft", Radix: 64, Levels: 5},                                    // 9.4M switches
		{Kind: "cft", Radix: 4, Levels: 70},                                    // overflows int
		{Kind: "xgft", M: []int{3, 3486784401, 3486784401}, W: []int{1, 1, 1}}, // overflows int
		{Kind: "kary", K: 2, Levels: 18},                                       // 2,359,296 switches
		{Kind: "kary", K: 2, Levels: 100},                                      // overflows int
		{Kind: "oft", Q: 2, Levels: 9},                                         // 97M switches
		{Kind: "oft", Q: 3, Levels: 40},                                        // overflows int
		{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 1 << 20},                    // 2.6M switches
		{Kind: "rfc", Radix: 4, Levels: 1 << 40, Leaves: 4},                    // more levels than the limit
	}
	for _, sp := range over {
		_, err := sp.Normalize()
		if err == nil || !strings.Contains(err.Error(), limitErr) {
			t.Errorf("%+v: Normalize error %v, want the serving-limit error", sp, err)
		}
		if _, _, err := c.Get(sp); err == nil || !strings.Contains(err.Error(), limitErr) {
			t.Errorf("%+v: Cache.Get error %v, want the serving-limit error", sp, err)
		}
	}
	under := []Spec{
		millionSwitchSpec(),
		{Kind: "kary", K: 2, Levels: 17}, // 1,114,112 switches
		{Kind: "cft", Radix: 64, Levels: 4},
		{Kind: "oft", Q: 2, Levels: 7}, // 1,529,437 switches
		{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 1 << 19},
	}
	for _, sp := range under {
		if _, err := sp.Normalize(); err != nil {
			t.Errorf("%+v: Normalize error %v, want accepted", sp, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("rejected specs left %d cache entries", c.Len())
	}
}

// bigSwitches is an independent oracle for the switch count of a validated
// spec: the closed form of each family in exact arithmetic.
func bigSwitches(sp Spec) *big.Int {
	pow := func(b, e int) *big.Int {
		return new(big.Int).Exp(big.NewInt(int64(b)), big.NewInt(int64(e)), nil)
	}
	mul := func(a int, b *big.Int) *big.Int { return new(big.Int).Mul(big.NewInt(int64(a)), b) }
	switch sp.Kind {
	case "rfc": // (l-1)·N1 + N1/2
		return big.NewInt(0).Add(mul(sp.Levels-1, big.NewInt(int64(sp.Leaves))), big.NewInt(int64(sp.Leaves/2)))
	case "cft": // (2(l-1)+1)·(R/2)^{l-1}
		return mul(2*sp.Levels-1, pow(sp.Radix/2, sp.Levels-1))
	case "kary": // l·k^{l-1}
		return mul(sp.Levels, pow(sp.K, sp.Levels-1))
	case "oft": // (2(l-1)+1)·n^{l-1}, n = q²+q+1
		return mul(2*sp.Levels-1, pow(sp.Q*sp.Q+sp.Q+1, sp.Levels-1))
	case "xgft": // Σ_i ∏_{j<=i} w_j · ∏_{j>i} m_j
		total := big.NewInt(0)
		for i := range sp.M {
			n := big.NewInt(1)
			for j := 0; j <= i; j++ {
				n.Mul(n, big.NewInt(int64(sp.W[j])))
			}
			for j := i + 1; j < len(sp.M); j++ {
				n.Mul(n, big.NewInt(int64(sp.M[j])))
			}
			total.Add(total, n)
		}
		return total
	}
	return big.NewInt(int64(sp.N)) // rrn
}

// FuzzSpecNormalize drives Normalize with arbitrary POST /v1/topology
// bodies, seeded from testdata/fuzz/FuzzSpecNormalize (every kind, and the
// over-limit and overflowing specs of TestSpecServingLimit). Normalize must never panic; an accepted spec must fit the serving
// limit by the closed-form oracle, and a spec rejected for the limit must
// exceed it; normalizing is idempotent on the canonical form.
func FuzzSpecNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		var sp Spec
		if json.Unmarshal([]byte(body), &sp) != nil {
			return
		}
		norm, err := sp.Normalize()
		if err != nil {
			// Past 64 levels the exponential families' exact powers get
			// needlessly large to check a rejection with.
			exact := norm.Kind == "rfc" || norm.Levels <= 64 && len(norm.M) <= 64
			if strings.Contains(err.Error(), limitErr) && exact {
				if n := bigSwitches(norm); n.Cmp(big.NewInt(maxSwitches)) <= 0 {
					t.Fatalf("%s rejected for the limit with %v switches", body, n)
				}
			}
			return
		}
		if n := bigSwitches(norm); n.Cmp(big.NewInt(maxSwitches)) > 0 {
			t.Fatalf("%s accepted with %v switches", body, n)
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("%s: second Normalize failed: %v", body, err)
		}
		if again.Canonical() != norm.Canonical() {
			t.Fatalf("%s: Canonical %q then %q", body, norm.Canonical(), again.Canonical())
		}
	})
}
