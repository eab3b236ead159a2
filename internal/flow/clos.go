package flow

import (
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// ClosNetwork routes matrix flows over a folded Clos along random shortest
// up/down paths, reusing the routing layer's compressed LeafSet covers for
// the minimal turn level (MinTurn) and every hop (NextUpPort/NextDownPort).
//
// Directed link ids: [0, T) terminal injection, [T, 2T) terminal ejection,
// then one id per (switch, up-port) in switch-id order, then one per
// (switch, down-port) — the two directions of every wire are independent
// capacity, as in the cycle engine's channel model.
type ClosNetwork struct {
	c  *topology.Clos
	ud *routing.UpDown
	// upStart/downStart are per-switch prefix sums of up-/down-degree,
	// frozen at construction (the topology must not mutate afterwards).
	upStart, downStart []int32
	upBase, downBase   int32
	links              int
}

// NewClosNetwork builds the adapter over the topology ud routes on.
func NewClosNetwork(ud *routing.UpDown) *ClosNetwork {
	c := ud.Clos()
	n := c.NumSwitches()
	net := &ClosNetwork{c: c, ud: ud,
		upStart: make([]int32, n+1), downStart: make([]int32, n+1)}
	for s := 0; s < n; s++ {
		net.upStart[s+1] = net.upStart[s] + int32(len(c.Up(int32(s))))
		net.downStart[s+1] = net.downStart[s] + int32(len(c.Down(int32(s))))
	}
	t := int32(c.Terminals())
	net.upBase = 2 * t
	net.downBase = net.upBase + net.upStart[n]
	net.links = int(net.downBase + net.downStart[n])
	return net
}

// NewClos is NewClosNetwork(ud); c must be ud's topology and the third
// argument is ignored.
//
// Deprecated: perfbench is its only caller; use NewClosNetwork.
func NewClos(_ *topology.Clos, ud *routing.UpDown, _ routing.TurnIndex) *ClosNetwork {
	return NewClosNetwork(ud)
}

// Terminals implements Network.
func (n *ClosNetwork) Terminals() int { return n.c.Terminals() }

// NumLinks implements Network.
func (n *ClosNetwork) NumLinks() int { return n.links }

// Resolve implements Network: injection link, a random shortest up/down
// path (uniform per hop among minimal next hops, like the cycle engine's
// adaptive policy), ejection link.
func (n *ClosNetwork) Resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool) {
	buf = append(buf, src)
	t := int32(n.c.Terminals())
	if src == dst {
		return append(buf, t+dst), true
	}
	sl, dl := n.c.LeafOfTerminal(int(src)), n.c.LeafOfTerminal(int(dst))
	if sl != dl {
		dli := int(dl) // leaf switch ids coincide with leaf indices
		turn := n.ud.MinTurn(int(sl), dli)
		if turn < 0 {
			return nil, false
		}
		s := sl
		for rem := turn; rem > 0; rem-- {
			p := n.ud.NextUpPort(s, rem, dli, r)
			if p < 0 {
				return nil, false
			}
			buf = append(buf, n.upBase+n.upStart[s]+int32(p))
			s = n.c.Up(s)[p]
		}
		for n.c.LevelOf(s) > 1 {
			p := n.ud.NextDownPort(s, dli, r)
			if p < 0 {
				return nil, false
			}
			buf = append(buf, n.downBase+n.downStart[s]+int32(p))
			s = n.c.Down(s)[p]
		}
	}
	return append(buf, t+dst), true
}
