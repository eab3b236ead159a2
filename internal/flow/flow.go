// Package flow is the flow-level max-min-fair throughput backend: the
// second engine behind the exhibit registry, for scenario sweeps the
// cycle-accurate simulator cannot reach. Instead of moving phits cycle by
// cycle it resolves every flow of a traffic matrix to one concrete path
// through the built topology and computes the exact max-min-fair rate
// allocation by iterative water-filling over link capacities — the standard
// instrument for comparing randomized vs. structured topologies at scale
// (Jellyfish; "High Throughput Data Center Topology Design").
//
// The model: every directed resource has capacity 1 in units of a
// terminal's injection bandwidth — each terminal's injection and ejection
// link and each direction of every switch-to-switch wire. A flow (src, dst,
// rate) occupies its injection link, the links of one randomly chosen
// shortest path (up/down for folded Clos, ECMP-shortest for RRNs), and the
// destination's ejection link; its demand caps its rate. Modelling the
// terminal links makes incast behave: an 8-into-1 incast group converges to
// 1/8 per flow at the sink's ejection link.
//
// Determinism contract (the same one the cycle backend obeys): path
// resolution fans out over internal/engine workers with each flow drawing
// from its own coordinate-derived stream — rng.At(seed,
// StringCoord("flow/path"), flowIndex) — and water-filling is a serial
// fixed-order iteration, so a Result is a pure function of (topology,
// matrix, seed) and byte-identical at any worker count.
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rfclos/internal/engine"
	"rfclos/internal/rng"
	"rfclos/internal/traffic"
)

// Network is a topology the solver can route a matrix over. Implementations
// are immutable during a Solve; both (ClosNetwork, RRNNetwork) resolve a
// flow to the directed link ids of one shortest path.
type Network interface {
	// Terminals returns the terminal count (matrix endpoints are
	// terminals).
	Terminals() int
	// NumLinks returns the size of the directed-link id space.
	NumLinks() int
	// Resolve appends the directed link ids of one path from terminal src
	// to terminal dst (injection link, switch hops, ejection link) to buf
	// and returns the extended slice, or (nil, false) when no path exists.
	// The choice among equal-length paths draws only from r.
	Resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool)
}

// Options tunes a Solve call.
type Options struct {
	// Seed drives path selection; every flow derives its own stream from
	// (Seed, "flow/path", flow index).
	Seed uint64
	// Workers sizes the path-resolution pool; 0 means one per CPU. Results
	// are byte-identical for any value. Sweep jobs that already run on a
	// worker pool should pass 1.
	Workers int
}

// Result is the max-min-fair allocation for one (network, matrix) point.
type Result struct {
	// Flows is the matrix size; Unroutable counts flows with no path
	// (allocated rate 0, possible only under faults).
	Flows, Unroutable int
	// Rates holds the per-flow max-min rate, indexed like the matrix.
	Rates []float64
	// Demand and Delivered are the summed offered and allocated rates.
	Demand, Delivered float64
	// Accepted is Delivered normalised by the terminal count — accepted
	// throughput per terminal, the cycle backend's phits/node/cycle
	// analogue.
	Accepted float64
	// MinRate/MeanRate/MaxRate summarise the routed flows' rates.
	MinRate, MeanRate, MaxRate float64
	// Jain is Jain's fairness index over routed flows' rates.
	Jain float64
	// Rounds counts water-filling iterations; SatLinks the links that
	// ended saturated.
	Rounds, SatLinks int
}

// pathCoord is the label of the per-flow path-selection streams.
var pathCoord = rng.StringCoord("flow/path")

// Solve routes every matrix flow over n and water-fills the max-min-fair
// rates. It never mutates n or m.
func Solve(n Network, m []traffic.Demand, opts Options) (*Result, error) {
	t := n.Terminals()
	for i := range m {
		if int(m[i].Src) >= t || int(m[i].Dst) >= t || m[i].Src < 0 || m[i].Dst < 0 {
			return nil, fmt.Errorf("flow: demand %d endpoints (%d,%d) outside %d terminals",
				i, m[i].Src, m[i].Dst, t)
		}
		if r := m[i].Rate; math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("flow: demand %d rate %v is not finite", i, r)
		}
	}
	// Phase 1 (parallel): resolve each flow to its directed link list.
	paths, err := engine.Run(len(m), opts.Workers, func(i int) ([]int32, error) {
		d := m[i]
		if d.Rate <= 0 {
			return nil, nil
		}
		r := rng.At(opts.Seed, pathCoord, uint64(i))
		p, ok := n.Resolve(d.Src, d.Dst, r, make([]int32, 0, 8))
		if !ok {
			return nil, nil
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2 (serial, fixed order): water-fill.
	res := waterfill(paths, m, n.NumLinks())
	res.Accepted = res.Delivered / float64(t)
	return res, nil
}

// waterfill computes the exact max-min-fair allocation by bottleneck-freeze
// iteration: all unfrozen flows share one rising water level; each round
// advances the level to the nearest event — a link saturating (its residual
// divided by its unfrozen-flow count) or a flow reaching its demand — and
// freezes the affected flows. Every round freezes at least one flow or
// link, so it terminates; all arithmetic is serial in fixed order, so the
// allocation is byte-stable.
func waterfill(paths [][]int32, m []traffic.Demand, nLinks int) *Result {
	res := &Result{Flows: len(m), Rates: make([]float64, len(m))}
	// Per-link unfrozen-flow counts and the reverse link→flows index (CSR
	// by counting sort: deterministic order).
	nact := make([]int32, nLinks)
	entries := 0
	for i, p := range paths {
		res.Demand += m[i].Rate
		if p == nil {
			if m[i].Rate > 0 {
				res.Unroutable++
			}
			continue
		}
		entries += len(p)
		for _, l := range p {
			nact[l]++
		}
	}
	lfStart := make([]int32, nLinks+1)
	for l := 0; l < nLinks; l++ {
		lfStart[l+1] = lfStart[l] + nact[l]
	}
	lfFlow := make([]int32, entries)
	next := append([]int32(nil), lfStart[:nLinks]...)
	for i, p := range paths {
		for _, l := range p {
			lfFlow[next[l]] = int32(i)
			next[l]++
		}
	}
	// Active links, kept compact as links saturate or empty out.
	active := make([]int32, 0, nLinks)
	resid := make([]float64, nLinks)
	for l := 0; l < nLinks; l++ {
		resid[l] = 1
		if nact[l] > 0 {
			active = append(active, int32(l))
		}
	}
	// Routed flows in ascending demand, index-ordered among equal demands.
	order := make([]int32, 0, len(m))
	for i, p := range paths {
		if p != nil && m[i].Rate > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(m[a].Rate, m[b].Rate); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	frozen := make([]bool, len(m))
	unfrozen := len(order)
	water := 0.0
	op := 0 // next demand-freeze candidate in order
	const eps = 1e-12
	freeze := func(f int32, rate float64) {
		frozen[f] = true
		res.Rates[f] = rate
		unfrozen--
		for _, l := range paths[f] {
			nact[l]--
		}
	}
	for unfrozen > 0 {
		// Nearest link-saturation event.
		deltaL := math.Inf(1)
		for _, l := range active {
			if nact[l] > 0 {
				if d := resid[l] / float64(nact[l]); d < deltaL {
					deltaL = d
				}
			}
		}
		// Nearest demand event.
		for op < len(order) && frozen[order[op]] {
			op++
		}
		deltaD := math.Inf(1)
		if op < len(order) {
			deltaD = m[order[op]].Rate - water
		}
		delta := math.Min(deltaL, deltaD)
		if math.IsInf(delta, 1) {
			break // no constraints left (cannot happen: every flow has links)
		}
		if delta > 0 {
			water += delta
			for _, l := range active {
				if nact[l] > 0 {
					resid[l] -= delta * float64(nact[l])
					if resid[l] < 0 {
						resid[l] = 0
					}
				}
			}
		}
		// Freeze demand-satisfied flows.
		for op < len(order) {
			f := order[op]
			if frozen[f] {
				op++
				continue
			}
			if m[f].Rate-water > eps {
				break
			}
			freeze(f, m[f].Rate)
			op++
		}
		// Freeze flows on saturated links and compact the active list.
		kept := active[:0]
		for _, l := range active {
			if nact[l] == 0 {
				continue
			}
			if resid[l] <= eps {
				for j := lfStart[l]; j < lfStart[l+1]; j++ {
					if f := lfFlow[j]; !frozen[f] {
						freeze(f, water)
					}
				}
				res.SatLinks++
				continue
			}
			kept = append(kept, l)
		}
		active = kept
		res.Rounds++
	}
	// Summaries over routed flows.
	routed := 0
	var sum, sumSq float64
	res.MinRate = math.Inf(1)
	for i, p := range paths {
		if p == nil || m[i].Rate <= 0 {
			continue
		}
		r := res.Rates[i]
		routed++
		sum += r
		sumSq += r * r
		if r < res.MinRate {
			res.MinRate = r
		}
		if r > res.MaxRate {
			res.MaxRate = r
		}
	}
	res.Delivered = sum
	if routed > 0 {
		res.MeanRate = sum / float64(routed)
		if sumSq > 0 {
			res.Jain = sum * sum / (float64(routed) * sumSq)
		}
	} else {
		res.MinRate = 0
	}
	return res
}
