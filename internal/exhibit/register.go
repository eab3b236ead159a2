package exhibit

import (
	"fmt"

	"rfclos/internal/analysis"
	"rfclos/internal/simnet"
)

// paperRadix is the paper's commodity radix for the analytic exhibits.
const paperRadix = 36

// run maps the shared Params onto the run context of the engine-backed
// exhibits.
func run(p Params) analysis.Run {
	return analysis.Run{Seed: p.Seed, Workers: p.Workers, Shard: p.Shard, Progress: p.Progress}
}

// cycles returns the cycle-engine parameters under the -cycles override:
// Cycles measured and Cycles/4 warmup, the Table 2 defaults when unset.
func cycles(p Params) simnet.Config {
	var c simnet.Config
	if p.Cycles > 0 {
		c.MeasureCycles, c.WarmupCycles = p.Cycles, p.Cycles/4
	}
	return c
}

// scenarioSweep builds the fig8/9/10 runner for one §6 scenario index,
// dispatching on Params.Backend between the cycle engine and the flow-level
// solver.
func scenarioSweep(scenario int) func(Params) (*Result, error) {
	return func(p Params) (*Result, error) {
		scs := analysis.Scenarios(p.Scale)
		sc := scs[0]
		if scenario >= 0 && scenario < len(scs) {
			sc = scs[scenario]
		}
		opts := analysis.SweepOptions{Run: run(p), Loads: p.Loads, Reps: p.Reps, Patterns: p.Patterns}
		switch p.Backend {
		case "", "cycle":
			// InfiniteSink reaches fig8-10 only, as in the pre-registry CLI.
			opts.Sim = cycles(p)
			opts.Sim.InfiniteSink = p.InfiniteSink
			return analysis.ScenarioSweep(sc, opts)
		case "flow":
			return analysis.FlowScenarioSweep(sc, opts)
		default:
			return nil, fmt.Errorf("exhibit: unknown backend %q (cycle|flow)", p.Backend)
		}
	}
}

// flowWorkload builds a flow-only exhibit runner: the equal-resources
// scenario's networks under one pinned traffic matrix. The matrix is the
// exhibit's identity, so Params.Patterns is deliberately ignored.
func flowWorkload(matrix string) func(Params) (*Result, error) {
	return func(p Params) (*Result, error) {
		return analysis.FlowScenarioSweep(analysis.Scenarios(p.Scale)[0],
			analysis.SweepOptions{Run: run(p), Loads: p.Loads, Reps: p.Reps, Patterns: []string{matrix}})
	}
}

func init() {
	register(Exhibit{
		ID: "fig5", Kind: Analytic, Defaults: "radix=36",
		Title: "Figure 5: diameter each topology needs as terminals grow",
		Run: func(p Params) (*Result, error) {
			return analysis.Fig5Diameter(paperRadix), nil
		},
	})
	register(Exhibit{
		ID: "fig6", Kind: Analytic, Defaults: "radices=8..64",
		Title: "Figure 6: scalability, terminals vs radix for 2-4 levels",
		Run: func(p Params) (*Result, error) {
			return analysis.Fig6Scalability(nil), nil
		},
	})
	register(Exhibit{
		ID: "fig7", Kind: Analytic, Defaults: "radix=36 points=40",
		Title: "Figure 7: expandability, total ports vs terminals",
		Run: func(p Params) (*Result, error) {
			return analysis.Fig7Expandability(paperRadix, 0, 40), nil
		},
	})
	register(Exhibit{
		ID: "costs", Kind: Analytic, Defaults: "radix=36, paper scale",
		Title: "§5 cost comparison: switches and wires vs the CFT",
		Run: func(p Params) (*Result, error) {
			return analysis.Costs(), nil
		},
	})
	register(Exhibit{
		ID: "thm42", Kind: Analytic, Defaults: "n1=300 trials=100",
		Title: "Theorem 4.2 Monte-Carlo routability check",
		Run: func(p Params) (*Result, error) {
			return analysis.Thm42(analysis.Thm42Options{Run: run(p), N1: 300, Trials: p.Trials})
		},
	})
	register(Exhibit{
		ID: "fig8", Kind: Sim, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Figure 8: latency & throughput, equal-resources scenario",
		Run:   scenarioSweep(0),
	})
	register(Exhibit{
		ID: "fig9", Kind: Sim, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Figure 9: latency & throughput, 100K-terminal scenario",
		Run:   scenarioSweep(1),
	})
	register(Exhibit{
		ID: "fig10", Kind: Sim, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Figure 10: latency & throughput, maximum-size scenario",
		Run:   scenarioSweep(2),
	})
	register(Exhibit{
		ID: "fig11", Kind: Resiliency, Defaults: "radix=12 trials=5",
		Title: "Figure 11: up/down fault tolerance across sizes",
		Run: func(p Params) (*Result, error) {
			return analysis.Fig11UpDownFaults(analysis.Fig11Options{Run: run(p), Radix: 12, Trials: p.Trials})
		},
	})
	register(Exhibit{
		ID: "fig12", Kind: Resiliency, Defaults: "scale=small steps=10 reps=2",
		Title: "Figure 12: max throughput as links fail",
		Run: func(p Params) (*Result, error) {
			return analysis.Fig12FaultThroughput(analysis.FaultSweepOptions{
				Run: run(p), Scale: p.Scale, Reps: p.Reps, Sim: cycles(p)})
		},
	})
	register(Exhibit{
		ID: "ablation", Kind: Sim, Defaults: "scale=small load=0.9 reps=2",
		Title: "Ablations: simulator design knobs on the RFC",
		Run: func(p Params) (*Result, error) {
			return analysis.Ablations(analysis.AblationOptions{
				Run: run(p), Scale: p.Scale, Reps: p.Reps, Sim: cycles(p)})
		},
	})
	register(Exhibit{
		ID: "structure", Kind: Analytic, Defaults: "target=1024 samples=200",
		Title: "Structural comparison: diameter, bisection, path diversity",
		Run: func(p Params) (*Result, error) {
			return analysis.Structure(analysis.StructureOptions{Seed: p.Seed})
		},
	})
	register(Exhibit{
		ID: "adversarial", Kind: Sim, Defaults: "scale=small reps=2",
		Title: "Adversarial shift permutation at full load",
		Run: func(p Params) (*Result, error) {
			return analysis.Adversarial(analysis.AdversarialOptions{
				Run: run(p), Scale: p.Scale, Reps: p.Reps, Sim: cycles(p)})
		},
	})
	register(Exhibit{
		ID: "tables", Kind: Analytic, Defaults: "scale=small k=8",
		Title: "Forwarding-state comparison vs Jellyfish k-paths",
		Run: func(p Params) (*Result, error) {
			return analysis.TablesReport(p.Scale, 8, p.Seed)
		},
	})
	register(Exhibit{
		ID: "jellyfish", Kind: Sim, Defaults: "scale=small loads=0.3,0.6,0.9,1.0 reps=2",
		Title: "Extension: RFC vs Jellyfish-style RRNs, uniform traffic",
		Run: func(p Params) (*Result, error) {
			return analysis.Jellyfish(analysis.JellyfishOptions{
				Run: run(p), Scale: p.Scale, Loads: p.Loads, Reps: p.Reps, Sim: cycles(p)})
		},
	})
	register(Exhibit{
		ID: "rrnfaults", Kind: Resiliency, Defaults: "scale=small steps=10 reps=2",
		Title: "Extension: throughput under faults, RFC vs RRN",
		Run: func(p Params) (*Result, error) {
			return analysis.RRNFaults(analysis.FaultSweepOptions{
				Run: run(p), Scale: p.Scale, Reps: p.Reps, Sim: cycles(p)})
		},
	})
	register(Exhibit{
		ID: "hotspot", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: hotspot traffic, equal-resources scenario",
		Run:   flowWorkload("hotspot"),
	})
	register(Exhibit{
		ID: "incast", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: incast fan-in traffic, equal-resources scenario",
		Run:   flowWorkload("incast"),
	})
	register(Exhibit{
		ID: "elephants", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: elephant-and-mice traffic, equal-resources scenario",
		Run:   flowWorkload("elephant-mice"),
	})
	register(Exhibit{
		ID: "storm", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: permutation storms, equal-resources scenario",
		Run:   flowWorkload("storm"),
	})
	register(Exhibit{
		ID: "flowscale", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3 patterns=uniform,storm",
		Title: "Flow backend: RFC vs RRN vs XGFT at 10× scenario scale",
		Run: func(p Params) (*Result, error) {
			return analysis.FlowScale(p.Scale,
				analysis.SweepOptions{Run: run(p), Loads: p.Loads, Reps: p.Reps, Patterns: p.Patterns})
		},
	})
	register(Exhibit{
		ID: "table3", Kind: Resiliency, Defaults: "targets=512..8192 trials=100",
		Title: "Table 3: % of links removed to disconnect each topology",
		Run: func(p Params) (*Result, error) {
			return analysis.Table3Disconnect(analysis.Table3Options{Run: run(p), Trials: p.Trials})
		},
	})
}
