package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/rng"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// JellyfishOptions configures the RFC-vs-RRN simulated comparison.
type JellyfishOptions struct {
	Run
	Scale Scale
	Loads []float64
	Reps  int
	Sim   simnet.Config // Table 2 parameters, shared by both simulators
}

// Jellyfish runs the comparison the paper declines to simulate (§6): the
// equal-resources RFC against Jellyfish-style random regular networks,
// under uniform traffic. Two RRNs are simulated:
//
//   - "equal-T": the minimal-radix RRN carrying the same terminal count
//     (the §7 sizing rule), and
//   - "equal-equipment": an RRN built from the same switch count and radix
//     as the RFC, carrying more terminals (the Jellyfish paper's "more
//     servers with the same equipment" configuration).
//
// The direct networks route ECMP-shortest with hop-indexed virtual
// channels for deadlock freedom — the extra mechanism (VCs >= diameter)
// that the paper's §1/§6 cost argument is about; the report records the VC
// requirement next to the throughput. The (network × load × rep) grid runs
// on the worker pool with coordinate-derived per-job streams, so the report
// is byte-identical for any opts.Workers.
func Jellyfish(opts JellyfishOptions) (*Report, error) {
	if opts.Scale == "" {
		opts.Scale = ScaleSmall
	}
	if len(opts.Loads) == 0 {
		opts.Loads = []float64{0.3, 0.6, 0.9, 1.0}
	}
	if opts.Reps <= 0 {
		opts.Reps = 2
	}
	opts.Run = opts.Run.withDefaults()
	sc := Scenarios(opts.Scale)[0]

	rfc, rud, err := buildRoutableRFC(sc.RFC, rng.At(opts.Seed, rng.StringCoord("jellyfish/topology/RFC")))
	if err != nil {
		return nil, err
	}
	// Equal-T RRN (minimal radix for the same terminals at diameter 4).
	spec := rrnSpecFor(sc.RFC.Terminals(), 4)
	eqT, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch,
		rng.At(opts.Seed, rng.StringCoord("jellyfish/topology/RRN-eqT")))
	if err != nil {
		return nil, err
	}
	// Equal-equipment RRN: same switch count and radix as the RFC, ports
	// split ~Δ:tps = 3:1 like a diameter-4 RRN.
	eqSwitches := sc.RFC.Switches()
	eqRadix := sc.RFC.Radix
	tps := eqRadix / 4
	deg := eqRadix - tps
	if (eqSwitches*deg)%2 != 0 {
		eqSwitches++
	}
	eqEquip, err := topology.NewRRN(eqSwitches, deg, tps,
		rng.At(opts.Seed, rng.StringCoord("jellyfish/topology/RRN-eqEquip")))
	if err != nil {
		return nil, err
	}

	nets := []netUnderTest{
		{name: fmt.Sprintf("RFC-R%d", sc.RFC.Radix), c: rfc, ud: rud},
		{name: fmt.Sprintf("RRN-eqT-R%d", spec.Radix()), rrn: eqT},
		{name: fmt.Sprintf("RRN-eqEquip-R%d", eqRadix), rrn: eqEquip},
	}
	g := rowGrid{reps: opts.Reps, Run: opts.Run}
	for _, n := range nets {
		for _, load := range opts.Loads {
			g.rows = append(g.rows, keyedRow{key: fmt.Sprintf("%s@%g", n.name, load),
				cells:  []Cell{Str(n.name), Float(load, "%.4g")},
				coords: []uint64{rng.StringCoord("jellyfish/" + n.name), math.Float64bits(load)}})
		}
	}

	rep := &Report{
		Title: fmt.Sprintf("Extension: RFC vs Jellyfish (RRN), uniform traffic (%s scale)", opts.Scale),
		Notes: []string{
			fmt.Sprintf("RFC: %v — deadlock-free with 0 required VCs", sc.RFC),
			fmt.Sprintf("RRN equal-T: %d switches × R%d, T=%d", eqT.N(), spec.Radix(), eqT.Terminals()),
			fmt.Sprintf("RRN equal-equipment: %d switches × R%d, T=%d (%.0f%% more terminals than the RFC)",
				eqEquip.N(), eqRadix, eqEquip.Terminals(),
				100*(float64(eqEquip.Terminals())/float64(sc.RFC.Terminals())-1)),
			"RRN rows need VCs >= diameter for deadlock freedom (hop-indexed scheme)",
		},
		Header: []string{"network", "load", "accepted", "latency"},
	}
	err = g.addTo(rep, func(row int, stream *rng.Rand) (simnet.Result, error) {
		n, load := nets[row/len(opts.Loads)], opts.Loads[row%len(opts.Loads)]
		cfg := opts.Sim
		cfg.Seed = stream.Uint64()
		return simulate(n, traffic.NewUniform(n.terminals()), cfg, load)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
