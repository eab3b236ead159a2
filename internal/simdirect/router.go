package simdirect

import (
	"fmt"

	"rfclos/internal/simcore"
	"rfclos/internal/topology"
)

// minimalRouter is the simcore.Router of direct networks: random minimal
// (shortest-path ECMP) port selection with hop-indexed VCs. Packet state is
// the hop count, doubling as the VC index.
type minimalRouter struct {
	routes *topology.MinimalRoutes
	tps    int32
}

// MinimalRouter builds the shortest-path ECMP policy for the unified engine,
// computing all-pairs distance tables. It returns the network diameter so
// callers can size the VC count; it fails when the graph is disconnected.
func MinimalRouter(rrn *topology.RRN) (simcore.Router, int, error) {
	routes, err := topology.NewMinimalRoutes(rrn, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("simdirect: %w", err)
	}
	return &minimalRouter{routes: routes, tps: int32(rrn.TermsPerSwitch)}, routes.Diameter, nil
}

// NewPacket starts every packet at hop 0; a connected network (checked at
// construction) routes every pair.
func (r *minimalRouter) NewPacket(_, _ int32) (int8, bool) { return 0, true }

// Route requests ejection at the destination switch, else a uniformly
// random neighbour one hop closer to it.
func (r *minimalRouter) Route(e *simcore.Engine, sw int32, p *simcore.Packet) int16 {
	dstSwitch := p.Dst / r.tps
	if dstSwitch == sw {
		return simcore.Eject
	}
	port := r.routes.NextHop(sw, dstSwitch, e.Rand())
	if port < 0 {
		return simcore.NoRoute
	}
	return int16(port)
}

// HasCredit checks the packet's single eligible VC: hop-indexed deadlock
// avoidance admits exactly VC State on every channel.
func (r *minimalRouter) HasCredit(e *simcore.Engine, ch int32, p *simcore.Packet) bool {
	return e.VCFree(ch, int32(p.State))
}

// SelectVC returns the hop-indexed VC; no randomness.
func (r *minimalRouter) SelectVC(e *simcore.Engine, ch int32, p *simcore.Packet) int32 {
	return ch*int32(e.Config().VCs) + int32(p.State)
}

// Forwarded advances the hop count, moving the packet to the next VC layer.
func (r *minimalRouter) Forwarded(_ *simcore.Engine, _, _ int32, p *simcore.Packet) {
	p.State++
}
