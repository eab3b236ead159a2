package flow

import (
	"fmt"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// RRNNetwork routes matrix flows over a random regular network along random
// ECMP-shortest paths. Construction precomputes the minimal-routing table
// the cycle engine's direct-network router also uses (topology.MinimalRoutes:
// one BFS distance row per switch, built in parallel), and Resolve walks
// greedily from the source switch, choosing uniformly among neighbours one
// hop closer to the destination.
//
// Directed link ids mirror ClosNetwork: [0, T) injection, [T, 2T) ejection,
// then one id per (switch, adjacency slot) — each direction of a wire is
// separate capacity.
type RRNNetwork struct {
	r      *topology.RRN
	routes *topology.MinimalRoutes
	// adjStart is the per-switch prefix sum of degree.
	adjStart []int32
	termBase int32
	links    int
}

// NewRRN builds the adapter, running the per-destination BFS sweep on up to
// `workers` goroutines (0 = one per CPU).
func NewRRN(r *topology.RRN, workers int) (*RRNNetwork, error) {
	routes, err := topology.NewMinimalRoutes(r, workers)
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	n := r.N()
	net := &RRNNetwork{r: r, routes: routes, adjStart: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		net.adjStart[v+1] = net.adjStart[v] + int32(len(r.G.Neighbors(v)))
	}
	net.termBase = int32(r.Terminals())
	net.links = int(2*net.termBase + net.adjStart[n])
	return net, nil
}

// Terminals implements Network.
func (n *RRNNetwork) Terminals() int { return n.r.Terminals() }

// NumLinks implements Network.
func (n *RRNNetwork) NumLinks() int { return n.links }

// Resolve implements Network.
func (n *RRNNetwork) Resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool) {
	buf = append(buf, src)
	if src == dst {
		return append(buf, n.termBase+dst), true
	}
	tps := int32(n.r.TermsPerSwitch)
	v, dsw := src/tps, dst/tps
	for v != dsw {
		port := n.routes.NextHop(v, dsw, r)
		if port < 0 {
			return nil, false
		}
		buf = append(buf, 2*n.termBase+n.adjStart[v]+int32(port))
		v = n.r.G.Neighbors(int(v))[port]
	}
	return append(buf, n.termBase+dst), true
}
