package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// JellyfishOptions configures the RFC-vs-RRN simulated comparison.
type JellyfishOptions struct {
	Scale Scale
	Loads []float64
	Reps  int
	Sim   simnet.Config // Table 2 parameters, shared by both simulators
	// Workers sizes the worker pool the (network × load × rep) grid fans
	// out on; 0 means one per CPU. The report is identical for any count.
	Workers int
	Seed    uint64
	// Shard restricts execution to the grid jobs this process owns;
	// partial reports merge byte-identically (see engine.Shard).
	Shard engine.Shard
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
	if opts.Seed == 0 {
		opts.Seed = 1
	}
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

	rows := []netUnderTest{
		{name: fmt.Sprintf("RFC-R%d", sc.RFC.Radix), c: rfc, ud: rud},
		{name: fmt.Sprintf("RRN-eqT-R%d", spec.Radix()), rrn: eqT},
		{name: fmt.Sprintf("RRN-eqEquip-R%d", eqRadix), rrn: eqEquip},
	}

	type outcome struct{ acc, lat float64 }
	perRow := len(opts.Loads) * opts.Reps
	results, err := engine.RunShard(len(rows)*perRow, opts.Workers, opts.Shard, func(i int) (outcome, error) {
		row := rows[i/perRow]
		load := opts.Loads[(i%perRow)/opts.Reps]
		rep := i % opts.Reps
		stream := rng.At(opts.Seed, rng.StringCoord("jellyfish/"+row.name),
			math.Float64bits(load), uint64(rep))
		cfg := opts.Sim
		cfg.Seed = stream.Uint64()
		res, err := simulate(row, traffic.NewUniform(row.terminals()), cfg, load)
		return outcome{res.AcceptedLoad, res.AvgLatency}, err
	})
	if err != nil {
		return nil, err
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
	for ri, row := range rows {
		for li, load := range opts.Loads {
			var accObs, latObs []metrics.Obs
			for r := 0; r < opts.Reps; r++ {
				i := ri*perRow + li*opts.Reps + r
				if opts.Shard.Owns(i) {
					accObs = append(accObs, metrics.Obs{Job: i, V: results[i].acc})
					latObs = append(latObs, metrics.Obs{Job: i, V: results[i].lat})
				}
			}
			rep.AddKeyed(fmt.Sprintf("%s@%g", row.name, load), Str(row.name), Float(load, "%.4g"),
				Mean(accObs, opts.Reps, "%.4f"), Mean(latObs, opts.Reps, "%.1f"))
		}
	}
	return rep, nil
}
