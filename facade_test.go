package rfclos

import (
	"testing"
)

// TestFacadeSmoke exercises every report-producing wrapper of the public
// API once, at minimal sizes, so a downstream user can rely on each entry
// point compiling and running.
func TestFacadeSmoke(t *testing.T) {
	quick := SimConfig{WarmupCycles: 100, MeasureCycles: 300}

	if _, err := NewRFCUnchecked(Params{Radix: 8, Levels: 2, Leaves: 8}, 1); err != nil {
		t.Errorf("NewRFCUnchecked: %v", err)
	}
	if _, err := NewGeneralRFC(NewHashnetParams(8, 3, 4, 4), 1); err != nil {
		t.Errorf("NewGeneralRFC: %v", err)
	}
	if rep, err := Thm42(Thm42Options{N1: 60, Trials: 10, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Thm42: %v", err)
	}
	if rep, err := Table3Disconnect(Table3Options{Targets: []int{256}, Trials: 5, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) != 1 {
		t.Errorf("Table3Disconnect: %v", err)
	}
	if rep, err := Fig11UpDownFaults(Fig11Options{Radix: 8, Trials: 1, MaxLeavesCap: 40, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Fig11UpDownFaults: %v", err)
	}
	if rep, err := Fig12FaultThroughput(FaultSweepOptions{FaultSteps: 1, Reps: 1, Sim: quick, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Fig12FaultThroughput: %v", err)
	}
	opts := SweepOptions{Loads: []float64{0.3}, Reps: 1, Sim: quick, Patterns: []string{"uniform"}, Run: Run{Seed: 1}}
	if rep, err := ScenarioSweep(ScaleSmall, 0, opts); err != nil || len(rep.Rows) == 0 {
		t.Errorf("ScenarioSweep: %v", err)
	}
	if rep, err := Ablations(AblationOptions{Reps: 1, Sim: quick, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Ablations: %v", err)
	}
	if rep, err := Structure(StructureOptions{Target: 128, PairSamples: 16, Seed: 1}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Structure: %v", err)
	}
	if rep, err := Adversarial(AdversarialOptions{Reps: 1, Sim: quick, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Adversarial: %v", err)
	}
	if rep, err := TablesReport(ScaleSmall, 2, 1); err != nil || len(rep.Rows) == 0 {
		t.Errorf("TablesReport: %v", err)
	}
	if rep, err := Jellyfish(JellyfishOptions{Loads: []float64{0.3}, Reps: 1, Sim: quick, Run: Run{Seed: 1}}); err != nil || len(rep.Rows) == 0 {
		t.Errorf("Jellyfish: %v", err)
	}
	if steps, err := PlanExpansion(16, 3, 1024, 2048, 5); err != nil || len(steps) == 0 {
		t.Errorf("PlanExpansion: %v", err)
	}
}

func TestFacadeReportFormat(t *testing.T) {
	rep := Costs()
	out := rep.Format()
	if len(out) < 100 {
		t.Errorf("Format produced suspiciously short output: %q", out)
	}
}
