package flow

import (
	"math"
	"math/big"
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/traffic"
)

// ratMaxMin is an exact max-min-fair oracle over unit-capacity links:
// progressive filling in math/big.Rat arithmetic. Every routed flow rises at
// one shared water level; each step advances the level to the nearest event
// (a link's residual divided by its active-flow count, or an active flow's
// demand) and freezes the flows that met their demand at the new level and
// those crossing a link left with zero residual. Exact arithmetic makes
// every tie an exact equality, so no tolerance is involved. Flows with a nil
// path get rate 0, as in waterfill.
func ratMaxMin(paths [][]int32, m []traffic.Demand, nLinks int) []*big.Rat {
	rates := make([]*big.Rat, len(m))
	demand := make([]*big.Rat, len(m))
	var active []int
	for i := range m {
		rates[i] = new(big.Rat)
		demand[i] = new(big.Rat).SetFloat64(m[i].Rate)
		if paths[i] != nil && m[i].Rate > 0 {
			active = append(active, i)
		}
	}
	resid := make([]*big.Rat, nLinks)
	for l := range resid {
		resid[l] = big.NewRat(1, 1)
	}
	level := new(big.Rat)
	for len(active) > 0 {
		count := make([]int64, nLinks)
		for _, f := range active {
			for _, l := range paths[f] {
				count[l]++
			}
		}
		var delta *big.Rat
		lower := func(d *big.Rat) {
			if delta == nil || d.Cmp(delta) < 0 {
				delta = d
			}
		}
		for l, c := range count {
			if c > 0 {
				lower(new(big.Rat).Quo(resid[l], big.NewRat(c, 1)))
			}
		}
		for _, f := range active {
			lower(new(big.Rat).Sub(demand[f], level))
		}
		level.Add(level, delta)
		for l, c := range count {
			if c > 0 {
				resid[l].Sub(resid[l], new(big.Rat).Mul(delta, big.NewRat(c, 1)))
			}
		}
		kept := active[:0]
		for _, f := range active {
			done := demand[f].Cmp(level) == 0
			for _, l := range paths[f] {
				done = done || resid[l].Sign() == 0
			}
			if done {
				rates[f].Set(level)
			} else {
				kept = append(kept, f)
			}
		}
		active = kept
	}
	return rates
}

// randomInstance draws up to 12 flows over up to 10 links. Paths are random
// sets of 1-4 distinct links, so flows share links, and about one flow in
// ten is unroutable (nil path). Demands mix quarter-multiples, which force
// exact ties between demand and saturation events, with arbitrary floats,
// and can exceed a link's unit capacity.
func randomInstance(r *rng.Rand) ([][]int32, []traffic.Demand, int) {
	nLinks := 1 + r.Intn(10)
	nFlows := 1 + r.Intn(12)
	paths := make([][]int32, nFlows)
	m := make([]traffic.Demand, nFlows)
	for i := range m {
		if r.Intn(4) == 0 {
			m[i].Rate = float64(1+r.Intn(6)) / 4
		} else {
			m[i].Rate = 0.01 + 1.49*r.Float64()
		}
		if r.Intn(10) == 0 {
			continue
		}
		perm := r.Perm(nLinks)
		for _, l := range perm[:1+r.Intn(min(4, nLinks))] {
			paths[i] = append(paths[i], int32(l))
		}
	}
	return paths, m, nLinks
}

// TestWaterfillMatchesExactOracle pins waterfill's float kernel, eps clamps
// included, to the exact rational allocation on seeded random instances.
func TestWaterfillMatchesExactOracle(t *testing.T) {
	const instances = 2000
	for k := 0; k < instances; k++ {
		paths, m, nLinks := randomInstance(rng.At(41, uint64(k)))
		got := waterfill(paths, m, nLinks).Rates
		want := ratMaxMin(paths, m, nLinks)
		for i := range m {
			w, _ := want[i].Float64()
			if math.Abs(got[i]-w) > 1e-9 {
				t.Errorf("instance %d flow %d: waterfill rate %v, exact %v (paths %v, demands %v)",
					k, i, got[i], want[i].FloatString(12), paths, m)
			}
		}
	}
}
