package topology

import (
	"fmt"
	"math"

	"rfclos/internal/engine"
	"rfclos/internal/rng"
)

// MinimalRoutes is the shortest-path (ECMP) routing state of a random
// regular network, shared by the cycle engine's minimal router and the
// flow backend: one BFS hop-distance row per destination switch, stored as
// uint8 (RRN diameters are tiny) so the n×n table stays affordable at 10×
// paper scale.
type MinimalRoutes struct {
	r    *RRN
	dist [][]uint8 // dist[d][v] is the hop distance from switch v to switch d
	// Diameter is the largest switch-to-switch hop distance.
	Diameter int
}

// NewMinimalRoutes runs the per-destination BFS sweep on up to workers
// goroutines (0 = one per CPU). Rows are independent, so the table is
// identical for any worker count. It fails when the graph is disconnected.
func NewMinimalRoutes(r *RRN, workers int) (*MinimalRoutes, error) {
	n := r.N()
	rows, err := engine.Run(n, workers, func(d int) ([]uint8, error) {
		row := make([]uint8, n)
		for v, dv := range r.G.BFS(d, nil) {
			if dv < 0 || dv >= math.MaxUint8 {
				return nil, fmt.Errorf("topology: RRN switch %d unreachable from %d (distance %d)", v, d, dv)
			}
			row[v] = uint8(dv)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	m := &MinimalRoutes{r: r, dist: rows}
	for _, row := range rows {
		for _, dv := range row {
			m.Diameter = max(m.Diameter, int(dv))
		}
	}
	return m, nil
}

// NextHop returns the adjacency slot (an index into G.Neighbors(v)) of a
// neighbour of switch v one hop closer to switch dst, sampled uniformly from
// r by a reservoir over the neighbour list, or -1 when v == dst.
func (m *MinimalRoutes) NextHop(v, dst int32, r *rng.Rand) int {
	row := m.dist[dst]
	want := row[v] - 1
	port, count := -1, 0
	for i, w := range m.r.G.Neighbors(int(v)) {
		if row[w] == want {
			count++
			if count == 1 || r.Intn(count) == 0 {
				port = i
			}
		}
	}
	return port
}
