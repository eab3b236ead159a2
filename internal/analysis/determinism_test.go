package analysis

// Regression tests for the engine's central contract: every sweep is a pure
// function of (seed, job coordinates), so running the same experiment on 1
// worker or many produces byte-identical reports. A failure here means some
// job is drawing randomness from a shared or order-dependent stream.

import (
	"sync"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/engine"
	"rfclos/internal/simnet"
)

// reportText renders a report the way cmd/rfcpaper prints it; comparing the
// formatted text catches any divergence, including row order.
func reportText(t *testing.T, run func() (*Report, error)) string {
	t.Helper()
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Format()
}

func TestScenarioSweepWorkerInvariance(t *testing.T) {
	sc := Scenario{
		Name: "tiny",
		CFT:  CFTSpec{Radix: 8, Levels: 3, TermsPerLeaf: 4},
		RFC:  core.Params{Radix: 8, Levels: 3, Leaves: 32},
	}
	opts := SweepOptions{
		Loads:    []float64{0.2, 0.6},
		Reps:     2,
		Patterns: []string{"uniform"},
		Sim:      simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
		Run:      Run{Seed: 21},
	}
	opts.Workers = 1
	serial := reportText(t, func() (*Report, error) { return ScenarioSweep(sc, opts) })
	opts.Workers = 8
	parallel := reportText(t, func() (*Report, error) { return ScenarioSweep(sc, opts) })
	if serial != parallel {
		t.Errorf("ScenarioSweep differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
}

func TestFig12WorkerInvariance(t *testing.T) {
	opts := FaultSweepOptions{
		Scale:      ScaleSmall,
		FaultSteps: 1,
		Reps:       2,
		Sim:        simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
		Run:        Run{Seed: 23},
	}
	opts.Workers = 1
	serial := reportText(t, func() (*Report, error) { return Fig12FaultThroughput(opts) })
	opts.Workers = 8
	parallel := reportText(t, func() (*Report, error) { return Fig12FaultThroughput(opts) })
	if serial != parallel {
		t.Errorf("Fig12FaultThroughput differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
}

func TestRRNFaultsWorkerInvariance(t *testing.T) {
	opts := FaultSweepOptions{
		Scale:      ScaleSmall,
		FaultSteps: 1,
		Reps:       2,
		Sim:        simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
		Run:        Run{Seed: 23},
	}
	opts.Workers = 1
	serial := reportText(t, func() (*Report, error) { return RRNFaults(opts) })
	opts.Workers = 8
	parallel := reportText(t, func() (*Report, error) { return RRNFaults(opts) })
	if serial != parallel {
		t.Errorf("RRNFaults differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
}

func TestTable3WorkerInvariance(t *testing.T) {
	opts := Table3Options{Targets: []int{256}, Trials: 8, Run: Run{Seed: 25}}
	opts.Workers = 1
	serial := reportText(t, func() (*Report, error) { return Table3Disconnect(opts) })
	opts.Workers = 8
	parallel := reportText(t, func() (*Report, error) { return Table3Disconnect(opts) })
	if serial != parallel {
		t.Errorf("Table3Disconnect differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
}

func TestThm42WorkerInvariance(t *testing.T) {
	serial := reportText(t, func() (*Report, error) {
		return Thm42(Thm42Options{N1: 60, Trials: 12, Run: Run{Workers: 1, Seed: 27}})
	})
	parallel := reportText(t, func() (*Report, error) {
		return Thm42(Thm42Options{N1: 60, Trials: 12, Run: Run{Workers: 8, Seed: 27}})
	})
	if serial != parallel {
		t.Errorf("Thm42 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
}

// quickSim is the short cycle budget the row-exhibit determinism tests
// run at.
var quickSim = simnet.Config{WarmupCycles: 100, MeasureCycles: 300}

// assertWorkerInvariance runs one exhibit at workers=1 and workers=8 and
// requires byte-identical reports.
func assertWorkerInvariance(t *testing.T, name string, run func(workers int) (*Report, error)) {
	t.Helper()
	serial := reportText(t, func() (*Report, error) { return run(1) })
	parallel := reportText(t, func() (*Report, error) { return run(8) })
	if serial != parallel {
		t.Errorf("%s differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			name, serial, parallel)
	}
}

func TestAblationsWorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "Ablations", func(workers int) (*Report, error) {
		return Ablations(AblationOptions{Reps: 2, Sim: quickSim, Run: Run{Seed: 35, Workers: workers}})
	})
}

func TestJellyfishWorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "Jellyfish", func(workers int) (*Report, error) {
		return Jellyfish(JellyfishOptions{Loads: []float64{0.4, 0.9}, Reps: 2, Sim: quickSim, Run: Run{Seed: 33, Workers: workers}})
	})
}

func TestAdversarialWorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "Adversarial", func(workers int) (*Report, error) {
		return Adversarial(AdversarialOptions{Reps: 2, Sim: quickSim, Run: Run{Seed: 31, Workers: workers}})
	})
}

// TestRunProgressOneLinePerJob checks Run.Progress means the same on the
// row and trial exhibits as on the sweeps: one line per owned job, sent from
// the workers, and no effect on the report.
func TestRunProgressOneLinePerJob(t *testing.T) {
	cases := []struct {
		name string
		run  func(Run) (*Report, error)
		jobs func(*Report) int
	}{
		{"Adversarial", func(r Run) (*Report, error) {
			return Adversarial(AdversarialOptions{Reps: 2, Sim: quickSim, Run: r})
		}, func(rep *Report) int { return 2 * len(rep.Rows) }},
		{"Thm42", func(r Run) (*Report, error) {
			return Thm42(Thm42Options{N1: 60, Trials: 5, Run: r})
		}, func(rep *Report) int { return 5 * len(rep.Rows) }},
	}
	for _, tc := range cases {
		var mu sync.Mutex
		lines := 0
		got := reportText(t, func() (*Report, error) {
			return tc.run(Run{Seed: 41, Workers: 4, Progress: func(string) { mu.Lock(); lines++; mu.Unlock() }})
		})
		rep, err := tc.run(Run{Seed: 41, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if want := rep.Format(); got != want {
			t.Errorf("%s report changed when Progress is set", tc.name)
		}
		if want := tc.jobs(rep); lines != want {
			t.Errorf("%s sent %d progress lines, want one per job (%d)", tc.name, lines, want)
		}
	}
}

// assertShardMerge checks the sharding contract end-to-end for one exhibit
// runner: for 2-way and 3-way partitions, running every shard, serializing
// each partial through the JSON wire format (the rfcmerge path) and merging
// reproduces the unsharded run's Format() byte-for-byte.
func assertShardMerge(t *testing.T, name string, run func(engine.Shard) (*Report, error)) {
	t.Helper()
	full, err := run(engine.Shard{})
	if err != nil {
		t.Fatalf("%s unsharded: %v", name, err)
	}
	want := full.Format()
	for _, n := range []int{2, 3} {
		var parts []*Report
		for k := 0; k < n; k++ {
			p, err := run(engine.Shard{K: k, N: n})
			if err != nil {
				t.Fatalf("%s shard %d/%d: %v", name, k, n, err)
			}
			data, err := p.JSON()
			if err != nil {
				t.Fatalf("%s shard %d/%d JSON: %v", name, k, n, err)
			}
			back, err := ParseReport(data)
			if err != nil {
				t.Fatalf("%s shard %d/%d parse: %v", name, k, n, err)
			}
			parts = append(parts, back)
		}
		merged, err := MergeReports(parts...)
		if err != nil {
			t.Fatalf("%s merge %d shards: %v", name, n, err)
		}
		if missing := merged.MissingObs(); missing != 0 {
			t.Errorf("%s merge %d shards: %d observations missing", name, n, missing)
		}
		if got := merged.Format(); got != want {
			t.Errorf("%s: %d-shard merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				name, n, want, got)
		}
	}
}

func TestScenarioSweepShardMerge(t *testing.T) {
	sc := Scenario{
		Name: "tiny",
		CFT:  CFTSpec{Radix: 8, Levels: 3, TermsPerLeaf: 4},
		RFC:  core.Params{Radix: 8, Levels: 3, Leaves: 32},
	}
	assertShardMerge(t, "ScenarioSweep", func(sh engine.Shard) (*Report, error) {
		return ScenarioSweep(sc, SweepOptions{
			Loads:    []float64{0.2, 0.6},
			Reps:     2,
			Patterns: []string{"uniform"},
			Sim:      simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
			Run:      Run{Seed: 21, Shard: sh},
		})
	})
}

func TestTable3ShardMerge(t *testing.T) {
	assertShardMerge(t, "Table3Disconnect", func(sh engine.Shard) (*Report, error) {
		return Table3Disconnect(Table3Options{Targets: []int{256}, Trials: 8, Run: Run{Seed: 25, Shard: sh}})
	})
}

func TestThm42ShardMerge(t *testing.T) {
	assertShardMerge(t, "Thm42", func(sh engine.Shard) (*Report, error) {
		return Thm42(Thm42Options{N1: 60, Trials: 12, Run: Run{Seed: 27, Shard: sh}})
	})
}

func TestFig11ShardMerge(t *testing.T) {
	assertShardMerge(t, "Fig11UpDownFaults", func(sh engine.Shard) (*Report, error) {
		return Fig11UpDownFaults(Fig11Options{Radix: 8, Trials: 2, MaxLeavesCap: 40, Run: Run{Seed: 29, Shard: sh}})
	})
}

func TestAdversarialShardMerge(t *testing.T) {
	assertShardMerge(t, "Adversarial", func(sh engine.Shard) (*Report, error) {
		return Adversarial(AdversarialOptions{
			Reps: 2, Sim: simnet.Config{WarmupCycles: 100, MeasureCycles: 300}, Run: Run{Seed: 31, Shard: sh},
		})
	})
}

func TestFig12ShardMerge(t *testing.T) {
	assertShardMerge(t, "Fig12FaultThroughput", func(sh engine.Shard) (*Report, error) {
		return Fig12FaultThroughput(FaultSweepOptions{
			FaultSteps: 1, Reps: 2, Sim: simnet.Config{WarmupCycles: 100, MeasureCycles: 300}, Run: Run{Seed: 23, Shard: sh},
		})
	})
}

func TestRRNFaultsShardMerge(t *testing.T) {
	assertShardMerge(t, "RRNFaults", func(sh engine.Shard) (*Report, error) {
		return RRNFaults(FaultSweepOptions{
			FaultSteps: 1, Reps: 2, Sim: simnet.Config{WarmupCycles: 100, MeasureCycles: 300}, Run: Run{Seed: 23, Shard: sh},
		})
	})
}

func TestJellyfishShardMerge(t *testing.T) {
	assertShardMerge(t, "Jellyfish", func(sh engine.Shard) (*Report, error) {
		return Jellyfish(JellyfishOptions{
			Loads: []float64{0.4, 0.9}, Reps: 2, Sim: simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
			Run: Run{Seed: 33, Shard: sh},
		})
	})
}

func TestAblationShardMerge(t *testing.T) {
	assertShardMerge(t, "Ablations", func(sh engine.Shard) (*Report, error) {
		return Ablations(AblationOptions{Reps: 2, Sim: quickSim, Run: Run{Seed: 35, Shard: sh}})
	})
}

// TestStaticReportMerge checks the all-static case: every shard of an
// analytic exhibit computes the identical complete report, and merging the
// copies must reproduce it unchanged.
func TestStaticReportMerge(t *testing.T) {
	a, b := Fig5Diameter(36), Fig5Diameter(36)
	merged, err := MergeReports(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Format() != a.Format() {
		t.Errorf("merging two identical static reports changed the bytes")
	}
}
