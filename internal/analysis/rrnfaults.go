package analysis

import (
	"fmt"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// RRNFaults extends the Figure 12 fault methodology to the random baseline
// the paper leaves unsimulated: maximum throughput (accepted load at offered
// 1.0) of the equal-resources RFC and the equal-T RRN as links fail, under
// uniform and adversarial shift traffic. Both network classes run on the
// unified cycle engine, differing only in routing policy, so the degradation
// curves are directly comparable. RFC points route up/down around faults
// (unroutable pairs are counted, the network keeps working); RRN points
// recompute shortest paths on the faulted graph and score 0 when the faults
// disconnect it or push its diameter past the hop-indexed VC budget — the
// deadlock-freedom fragility §1/§6 attribute to direct random networks.
// Every grid point is an independent job with streams derived from its
// coordinates, so the report is byte-identical for any opts.Workers.
func RRNFaults(opts FaultSweepOptions) (*Report, error) {
	opts = opts.withDefaults()
	sc := Scenarios(opts.Scale)[0]

	rfc, _, err := buildRoutableRFC(sc.RFC, rng.At(opts.Seed, rng.StringCoord("rrnfaults/topology/RFC")))
	if err != nil {
		return nil, err
	}
	spec := rrnSpecFor(sc.RFC.Terminals(), 4)
	rrn, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch,
		rng.At(opts.Seed, rng.StringCoord("rrnfaults/topology/RRN")))
	if err != nil {
		return nil, err
	}
	names := []string{fmt.Sprintf("RFC-R%d", sc.RFC.Radix), fmt.Sprintf("RRN-R%d", spec.Radix())}
	sset, err := faultSweep("rrnfaults/", names, []int{rfc.Wires(), rrn.Wires()}, []string{"uniform", "shift"}, opts,
		func(j gridJob, faults int, stream *rng.Rand) (float64, error) {
			var n netUnderTest
			if j.net == 0 { // the RFC: up/down routing rebuilt around the faults
				faulty := rfc.Clone()
				faulty.RemoveRandomLinks(faults, stream)
				n = netUnderTest{c: faulty, ud: routing.New(faulty)}
			} else {
				faulty := &topology.RRN{G: rrn.G.Clone(), Degree: rrn.Degree, TermsPerSwitch: rrn.TermsPerSwitch}
				removeRandomGraphLinks(faulty.G, faults, stream)
				n = netUnderTest{rrn: faulty}
			}
			cfg := opts.Sim
			cfg.Seed = stream.Uint64()
			pat := traffic.Pattern(traffic.NewUniform(n.terminals()))
			if j.pattern == "shift" {
				pat = traffic.NewShift(n.terminals(), 0)
			}
			res, err := simulate(n, pat, cfg, 1.0)
			if err != nil {
				// Disconnected, or diameter grew past the VC budget: the
				// direct network cannot route deadlock-free any more.
				return 0, nil
			}
			return res.AcceptedLoad, nil
		})
	if err != nil {
		return nil, err
	}
	return sset.report("Extension: max throughput under link faults, RFC vs RRN (unified engine)",
		[]string{
			fmt.Sprintf("scale=%s; offered load 1.0; faults up to ~13%% of each network's wires", opts.Scale),
			fmt.Sprintf("RFC: %v, up/down routing around faults; RRN: %d switches × R%d, minimal routing with %d hop-indexed VCs",
				sc.RFC, rrn.N(), spec.Radix(), rrnVCs),
			"RRN points score 0 when faults disconnect the graph or push its diameter past the VC budget",
		},
		"faulty links", "accepted load"), nil
}

// removeRandomGraphLinks deletes n uniformly random edges from g (fewer when
// g runs out).
func removeRandomGraphLinks(g *graph.Graph, n int, r *rng.Rand) {
	for i := 0; i < n; i++ {
		edges := g.Edges()
		if len(edges) == 0 {
			return
		}
		e := edges[r.Intn(len(edges))]
		g.RemoveEdge(int(e.U), int(e.V))
	}
}
