package analysis

import (
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/engine"
)

func tinyFlowScenario() Scenario {
	return Scenario{
		Name: "tiny",
		CFT:  CFTSpec{Radix: 8, Levels: 3, TermsPerLeaf: 4},
		RFC:  core.Params{Radix: 8, Levels: 3, Leaves: 32},
	}
}

func tinyFlowOpts(sh engine.Shard) SweepOptions {
	return SweepOptions{
		Loads:    []float64{0.3, 0.9},
		Reps:     2,
		Patterns: []string{"uniform", "hotspot"},
		Run:      Run{Seed: 23, Shard: sh},
	}
}

func TestFlowScenarioSweepWorkerInvariance(t *testing.T) {
	serial := reportText(t, func() (*Report, error) {
		o := tinyFlowOpts(engine.Shard{})
		o.Workers = 1
		return FlowScenarioSweep(tinyFlowScenario(), o)
	})
	parallel := reportText(t, func() (*Report, error) {
		o := tinyFlowOpts(engine.Shard{})
		o.Workers = 8
		return FlowScenarioSweep(tinyFlowScenario(), o)
	})
	if serial != parallel {
		t.Errorf("FlowScenarioSweep differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, parallel)
	}
}

func TestFlowScenarioSweepShardMerge(t *testing.T) {
	assertShardMerge(t, "FlowScenarioSweep", func(sh engine.Shard) (*Report, error) {
		return FlowScenarioSweep(tinyFlowScenario(), tinyFlowOpts(sh))
	})
}

func TestFlowScaleShardMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("10×-scale flow sweep skipped under -short")
	}
	assertShardMerge(t, "FlowScale", func(sh engine.Shard) (*Report, error) {
		return FlowScale(ScaleSmall, SweepOptions{
			Loads:    []float64{1.0},
			Reps:     1,
			Patterns: []string{"uniform"},
			Run:      Run{Seed: 23, Shard: sh},
		})
	})
}
