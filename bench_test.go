package rfclos

// One benchmark per paper exhibit (Figures 5-12, Table 3, Theorem 4.2),
// plus micro-benchmarks of the core operations. The benchmarks run reduced
// workloads so `go test -bench=.` finishes on a laptop; cmd/rfcpaper runs
// the full versions and EXPERIMENTS.md records paper-vs-measured numbers.

import (
	"testing"

	"rfclos/internal/analysis"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

func BenchmarkFig5Diameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := Fig5Diameter(36); len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig6Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := Fig6Scalability(nil); len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig7Expandability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rep := Fig7Expandability(36, 0, 40); len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// benchSweep runs a reduced sweep of one §6 scenario on a worker pool of
// the given size (0 = one worker per CPU). Serial and parallel variants
// produce identical reports; only wall-clock differs.
func benchSweep(b *testing.B, scenario, workers int) {
	b.Helper()
	opts := SweepOptions{
		Loads: []float64{0.4, 0.6},
		Reps:  2,
		Sim:   simnet.Config{WarmupCycles: 200, MeasureCycles: 600},
		Run:   Run{Seed: uint64(scenario + 1), Workers: workers},
	}
	opts.Patterns = []string{"uniform"}
	for i := 0; i < b.N; i++ {
		rep, err := ScenarioSweep(ScaleSmall, scenario, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig8Scenario11K(b *testing.B)          { benchSweep(b, 0, 1) }
func BenchmarkFig8Scenario11KParallel(b *testing.B)  { benchSweep(b, 0, 0) }
func BenchmarkFig9Scenario100K(b *testing.B)         { benchSweep(b, 1, 1) }
func BenchmarkFig9Scenario100KParallel(b *testing.B) { benchSweep(b, 1, 0) }
func BenchmarkFig10Scenario200K(b *testing.B)        { benchSweep(b, 2, 1) }

func BenchmarkFig11UpDownFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Fig11UpDownFaults(Fig11Options{Radix: 8, Trials: 2, MaxLeavesCap: 80, Run: Run{Seed: 3}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig12FaultThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Fig12FaultThroughput(FaultSweepOptions{
			Scale:      ScaleSmall,
			FaultSteps: 2,
			Reps:       1,
			Sim:        simnet.Config{WarmupCycles: 150, MeasureCycles: 400},
			Run:        Run{Seed: 5},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable3Disconnect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Table3Disconnect(Table3Options{Targets: []int{512, 1024}, Trials: 10, Run: Run{Seed: 7}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

func BenchmarkThm42MonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Thm42(Thm42Options{N1: 120, Trials: 20, Run: Run{Seed: 9}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Ablations(AblationOptions{
			Scale: ScaleSmall,
			Reps:  1,
			Sim:   simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
			Run:   Run{Seed: 11},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkJellyfishComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Jellyfish(JellyfishOptions{
			Loads: []float64{0.5},
			Reps:  1,
			Sim:   simnet.Config{WarmupCycles: 100, MeasureCycles: 300},
			Run:   Run{Seed: 13},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- micro-benchmarks of the core operations ---

func BenchmarkGenerateRFC648(b *testing.B) {
	p := Params{Radix: 36, Levels: 3, Leaves: 648}
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRFCUnchecked(p, r.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterRebuild11K(b *testing.B) {
	c, err := topology.NewCFT(36, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ud.Rebuild()
	}
}

func BenchmarkUpDownPathLookup(b *testing.B) {
	c, err := topology.NewCFT(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	r := rng.New(2)
	n1 := c.LevelSize(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := r.Intn(n1), r.Intn(n1)
		if p := ud.Path(src, dst, r); p == nil {
			b.Fatal("no path")
		}
	}
}

func BenchmarkSimulatedCycle1K(b *testing.B) {
	// Cost of one simulated cycle on the scaled 1K-terminal CFT at 60%
	// load, reported as ns per cycle.
	c, err := topology.NewCFT(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	cfg := simnet.Config{WarmupCycles: 100, MeasureCycles: 900, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.New(c, ud, traffic.NewUniform(c.Terminals()), cfg).Run(0.6)
	}
}

func BenchmarkFaultsToDisconnect(b *testing.B) {
	c, err := topology.NewCFT(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	g := c.SwitchGraph()
	r := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.FaultsToDisconnect(g, r)
	}
}
