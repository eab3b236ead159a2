package analysis

import (
	"testing"

	"rfclos/internal/simnet"
)

func TestAblations(t *testing.T) {
	rep, err := Ablations(AblationOptions{
		Scale: ScaleSmall,
		Load:  0.9,
		Reps:  1,
		Sim:   simnet.Config{WarmupCycles: 200, MeasureCycles: 600},
		Run:   Run{Seed: 21},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 VC values + 4 buffer values + 3 refresh values + 2 routing
	// policies + 2 sink models.
	if len(rep.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rep.Rows))
	}
	vals := map[string]float64{}
	for _, row := range rep.Strings() {
		a := atofOrZero(row[2])
		if a <= 0 || a > 1.05 {
			t.Errorf("accepted %v out of range for %v=%v", a, row[0], row[1])
		}
		vals[row[0]+"="+row[1]] = a
	}
	// More virtual channels must not hurt throughput materially (HoL
	// relief is the whole point of VCs in Table 2).
	if vals["virtual-channels=4"] < vals["virtual-channels=1"]-0.05 {
		t.Errorf("4 VCs (%v) should not underperform 1 VC (%v)",
			vals["virtual-channels=4"], vals["virtual-channels=1"])
	}
	// Deeper buffers must not hurt either.
	if vals["buffer-packets=4"] < vals["buffer-packets=1"]-0.05 {
		t.Errorf("4-packet buffers (%v) should not underperform 1-packet (%v)",
			vals["buffer-packets=4"], vals["buffer-packets=1"])
	}
}
