package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/engine"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simdirect"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// SimOptions controls the simulation-based experiments (Figures 8-10, 12).
type SimOptions struct {
	// Loads is the offered-load sweep (phits/node/cycle).
	Loads []float64
	// Reps is the number of independent repetitions averaged per point
	// (the paper averages at least 5).
	Reps int
	// Sim carries the Table 2 parameters; zero fields take defaults.
	Sim simnet.Config
	// Patterns restricts the traffic patterns (default: all three).
	Patterns []string
	// Seed drives every random choice. Each simulation job derives its
	// stream from its coordinates — rng.At(Seed, StringCoord(network),
	// StringCoord(pattern), Float64bits(load), rep) — so reports are
	// byte-identical for any Workers setting.
	Seed uint64
	// Workers is the worker-pool size for the (load × rep × pattern ×
	// network) job grid; 0 means one worker per CPU (engine.Workers).
	Workers int
	// Shard restricts execution to the jobs this process owns (see
	// engine.Shard); the zero value runs the whole grid. Sharded runs emit
	// partial aggregates that MergeReports combines byte-identically.
	Shard engine.Shard
	// Progress, when non-nil, receives one line per completed job. It is
	// called from worker goroutines, so it must be safe for concurrent use
	// when Workers != 1 (engine.Progress builds a safe, counting sink).
	Progress func(string)
}

func (o SimOptions) withDefaults() SimOptions {
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.Patterns) == 0 {
		o.Patterns = traffic.Names()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
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
// Per-job seeds are derived from the job coordinates, so the report is
// byte-identical for any opts.Workers.
func ScenarioSweep(sc Scenario, opts SimOptions) (*Report, error) {
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
		patterns: opts.Patterns, reps: opts.Reps, suffixes: []string{"/throughput", "/latency"},
		seed: opts.Seed, workers: opts.Workers, shard: opts.Shard,
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
