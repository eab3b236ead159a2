package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/core"
	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// flowNet couples a named network with its flow-level routing adapter.
type flowNet struct {
	name  string
	net   flow.Network
	terms int
}

// runFlowGrid executes the (network × pattern × load × rep) grid on the
// worker pool and aggregates it into a (series, load, value, stddev) report
// with three series per (network, pattern) group: accepted throughput per
// terminal, the minimum flow rate (the starved-flow floor the mean hides)
// and Jain's fairness index — the flow backend's new report columns.
func runFlowGrid(title string, notes []string, nets []flowNet, opts SweepOptions) (*Report, error) {
	names := make([]string, len(nets))
	for i, n := range nets {
		names[i] = n.name
	}
	sset, err := seriesGrid{
		label: "flow/", nets: names, xs: func(int) []float64 { return opts.Loads }, xBits: math.Float64bits,
		patterns: opts.Patterns, reps: opts.Reps, suffixes: []string{"/accepted", "/minrate", "/jain"}, Run: opts.Run,
	}.run(func(j gridJob, stream *rng.Rand) ([]float64, error) {
		n := nets[j.net]
		m, err := traffic.NewMatrix(j.pattern, n.terms, stream)
		if err != nil {
			return nil, err
		}
		m = traffic.ScaleMatrix(m, j.x)
		res, err := flow.Solve(n.net, m, flow.Options{Seed: stream.Uint64(), Workers: 1})
		if err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%s/%s load=%.2f rep=%d accepted=%.3f min=%.3f jain=%.3f",
				n.name, j.pattern, j.x, j.rep, res.Accepted, res.MinRate, res.Jain))
		}
		return []float64{res.Accepted, res.MinRate, res.Jain}, nil
	})
	if err != nil {
		return nil, err
	}
	notes = append(notes,
		"flow-level backend: max-min-fair water-filling over unit-capacity links, one random shortest path per flow",
		"accepted in delivered rate per terminal; minrate is the worst flow's rate; jain is Jain's fairness index")
	return sset.report(title, notes, "offered load", "value"), nil
}

// FlowScenarioSweep is ScenarioSweep on the flow-level backend: the same
// scenario networks (identical generation streams, so the topologies match
// the cycle backend's run for run), each matrix pattern swept across
// offered loads with per-flow max-min rates instead of cycle simulation.
func FlowScenarioSweep(sc Scenario, opts SweepOptions) (*Report, error) {
	opts = opts.withDefaults()
	nets, err := buildScenarioNets(sc, opts.Seed)
	if err != nil {
		return nil, err
	}
	fnets := make([]flowNet, len(nets))
	for i, n := range nets {
		fnets[i] = flowNet{name: n.name, net: flow.NewClosNetwork(n.ud), terms: n.c.Terminals()}
	}
	notes := []string{
		fmt.Sprintf("scenario %s: CFT T=%d, RFC T=%d", sc.Name, sc.CFT.Terminals(), sc.RFC.Terminals()),
	}
	return runFlowGrid("Flow backend: max-min throughput, scenario "+sc.Name, notes, fnets, opts)
}

// flowScaleSpec sizes the 10× comparison: the equal-resources scenario's
// terminal count scaled ~10× at the same radix, carried by an XGFT (a
// 4-level CFT with spare leaf ports), a 3-level (paper scale; 4-level at
// the reduced radix) RFC and an equal-terminal RRN with a Jellyfish-style
// Δ:tps ≈ 3:1 port split.
type flowScaleSpec struct {
	xgft                 CFTSpec
	rfc                  core.Params
	rrnN, rrnDeg, rrnTps int
}

func flowScaleFor(scale Scale) flowScaleSpec {
	if scale == ScalePaper {
		// 116,640 terminals: 10× the 11K-equal-resources scenario.
		return flowScaleSpec{
			xgft: CFTSpec{Radix: 36, Levels: 4, TermsPerLeaf: 10},
			rfc:  core.Params{Radix: 36, Levels: 3, Leaves: 6480},
			rrnN: 12960, rrnDeg: 27, rrnTps: 9,
		}
	}
	// 8,192 terminals: 8× the 1K scenario (radix 16 caps the leaf at 8
	// terminals, so the small analogue lands at 8× rather than 10×).
	return flowScaleSpec{
		xgft: CFTSpec{Radix: 16, Levels: 4, TermsPerLeaf: 8},
		rfc:  core.Params{Radix: 16, Levels: 4, Leaves: 1024},
		rrnN: 2048, rrnDeg: 12, rrnTps: 4,
	}
}

// FlowScale runs the flow-only headline comparison the cycle engine cannot
// reach: RFC vs RRN vs XGFT at ~10× the equal-resources scenario's size
// (116,640 terminals at paper scale). All three networks carry identical
// terminal counts.
func FlowScale(scale Scale, opts SweepOptions) (*Report, error) {
	if scale == "" {
		scale = ScaleSmall
	}
	if len(opts.Patterns) == 0 {
		// At 10× scale the default is the cheap pair that separates the
		// topologies; callers can still ask for any matrix by name.
		opts.Patterns = []string{"uniform", "storm"}
	}
	opts = opts.withDefaults()
	spec := flowScaleFor(scale)

	xgft, err := spec.xgft.Build()
	if err != nil {
		return nil, err
	}
	rfc, rud, err := buildRoutableRFC(spec.rfc, rng.At(opts.Seed, rng.StringCoord("flowscale/topology/RFC")))
	if err != nil {
		return nil, err
	}
	rrn, err := topology.NewRRN(spec.rrnN, spec.rrnDeg, spec.rrnTps,
		rng.At(opts.Seed, rng.StringCoord("flowscale/topology/RRN")))
	if err != nil {
		return nil, err
	}
	rrnNet, err := flow.NewRRN(rrn, opts.Workers)
	if err != nil {
		return nil, err
	}
	nets := []flowNet{
		{fmt.Sprintf("XGFT-%dL-R%d", spec.xgft.Levels, spec.xgft.Radix),
			flow.NewClosNetwork(routing.New(xgft)), xgft.Terminals()},
		{fmt.Sprintf("RFC-%dL-R%d", spec.rfc.Levels, spec.rfc.Radix),
			flow.NewClosNetwork(rud), rfc.Terminals()},
		{fmt.Sprintf("RRN-R%d", spec.rrnDeg+spec.rrnTps), rrnNet, rrn.Terminals()},
	}
	notes := []string{
		fmt.Sprintf("XGFT %s, RFC %v, RRN %d switches × Δ%d+%d terminals — T=%d each (~10× the equal-resources scenario)",
			netShape(spec.xgft), spec.rfc, spec.rrnN, spec.rrnDeg, spec.rrnTps, xgft.Terminals()),
	}
	title := fmt.Sprintf("Flow backend: RFC vs RRN vs XGFT at 10× scale (%s)", scale)
	return runFlowGrid(title, notes, nets, opts)
}

// netShape renders a CFTSpec compactly for report notes.
func netShape(s CFTSpec) string {
	return fmt.Sprintf("R%d %dL ×%d/leaf", s.Radix, s.Levels, s.TermsPerLeaf)
}
