package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simdirect"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// SweepOptions controls the series sweeps over offered load: Figures 8-10
// on either backend, and the flow-only workload and scale exhibits.
type SweepOptions struct {
	Run
	// Loads is the offered-load sweep (phits/node/cycle on the cycle
	// backend; the fraction of a terminal's injection bandwidth each matrix
	// offers per source on the flow backend).
	Loads []float64
	// Reps is the number of independent repetitions averaged per point
	// (the paper averages at least 5).
	Reps int
	// Patterns selects the traffic patterns by name (default: the three §6
	// patterns). The flow backend accepts any traffic.MatrixNames entry.
	Patterns []string
	// Sim carries the Table 2 parameters; zero fields take defaults. Only
	// the cycle backend reads it: each flow-backend point is one exact
	// water-filling solve.
	Sim simnet.Config
}

func (o SweepOptions) withDefaults() SweepOptions {
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.Patterns) == 0 {
		o.Patterns = traffic.Names()
	}
	o.Run = o.Run.withDefaults()
	return o
}

// rrnVCs is the hop-indexed VC budget of every simulated RRN: it covers any
// small-network diameter.
const rrnVCs = 16

// netUnderTest is a named network on the cycle engine: a folded Clos with
// its up/down routing state, or, when rrn is set, a random regular network.
type netUnderTest struct {
	name string
	c    *topology.Clos
	ud   *routing.UpDown
	rrn  *topology.RRN
}

// terminals returns the network's terminal count.
func (n netUnderTest) terminals() int {
	if n.rrn != nil {
		return n.rrn.Terminals()
	}
	return n.c.Terminals()
}

// simulate runs one cycle-engine point at the offered load: up/down routing
// on a folded Clos, minimal routing with rrnVCs hop-indexed VCs on an RRN.
// It fails only for an RRN that is disconnected or whose diameter exceeds
// the VC budget.
func simulate(n netUnderTest, pat traffic.Pattern, cfg simnet.Config, load float64) (simnet.Result, error) {
	if n.rrn == nil {
		return simnet.New(n.c, n.ud, pat, cfg).Run(load), nil
	}
	cfg.VCs = rrnVCs
	sim, err := simdirect.New(n.rrn, pat, cfg)
	if err != nil {
		return simnet.Result{}, err
	}
	return sim.Run(load), nil
}

// buildScenarioNets constructs a scenario's networks with per-network
// coordinate-derived generation streams.
func buildScenarioNets(sc Scenario, seed uint64) ([]netUnderTest, error) {
	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	nets := []netUnderTest{{
		name: fmt.Sprintf("CFT-%dL-R%d", sc.CFT.Levels, sc.CFT.Radix), c: cft, ud: routing.New(cft)}}
	rfc, rud, err := buildRoutableRFC(sc.RFC, rng.At(seed, rng.StringCoord("scenario/topology/RFC")))
	if err != nil {
		return nil, err
	}
	nets = append(nets, netUnderTest{
		name: fmt.Sprintf("RFC-%dL-R%d", sc.RFC.Levels, sc.RFC.Radix), c: rfc, ud: rud})
	if sc.AltRFC != nil {
		alt, aud, err := buildRoutableRFC(*sc.AltRFC, rng.At(seed, rng.StringCoord("scenario/topology/AltRFC")))
		if err != nil {
			return nil, err
		}
		nets = append(nets, netUnderTest{
			name: fmt.Sprintf("RFC-%dL-R%d", sc.AltRFC.Levels, sc.AltRFC.Radix), c: alt, ud: aud})
	}
	return nets, nil
}

// ScenarioSweep runs the full Figure 8/9/10 experiment for one scenario:
// every network in the scenario × every traffic pattern × the load sweep,
// as one (network × pattern × load × rep) job grid on the worker pool.
// Each job draws from rng.At(Seed, StringCoord(network), StringCoord(pattern),
// Float64bits(load), rep), so the report is byte-identical for any
// opts.Workers.
func ScenarioSweep(sc Scenario, opts SweepOptions) (*Report, error) {
	opts = opts.withDefaults()
	nets, err := buildScenarioNets(sc, opts.Seed)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(nets))
	for i, n := range nets {
		names[i] = n.name
	}
	sset, err := seriesGrid{
		nets: names, xs: func(int) []float64 { return opts.Loads }, xBits: math.Float64bits,
		patterns: opts.Patterns, reps: opts.Reps, suffixes: []string{"/throughput", "/latency"}, Run: opts.Run,
	}.run(func(j gridJob, stream *rng.Rand) ([]float64, error) {
		n := nets[j.net]
		pat, err := traffic.New(j.pattern, n.terminals(), stream)
		if err != nil {
			return nil, err
		}
		cfg := opts.Sim
		cfg.Seed = stream.Uint64()
		res, err := simulate(n, pat, cfg, j.x)
		if err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%s/%s load=%.2f rep=%d accepted=%.3f latency=%.1f",
				n.name, j.pattern, j.x, j.rep, res.AcceptedLoad, res.AvgLatency))
		}
		return []float64{res.AcceptedLoad, res.AvgLatency}, nil
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("scenario %s: CFT T=%d, RFC T=%d", sc.Name, sc.CFT.Terminals(), sc.RFC.Terminals()),
		"throughput in accepted phits/node/cycle; latency in cycles (generation to tail delivery)",
	}
	return sset.report("Figures 8-10: latency & throughput, scenario "+sc.Name,
		notes, "offered load", "value"), nil
}
