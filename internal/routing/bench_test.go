package routing

import (
	"testing"

	"rfclos/internal/topology"
)

// benchUpDown builds the 4096-leaf XGFT the cover build is benchmarked on.
func benchUpDown(b *testing.B) *UpDown {
	b.Helper()
	c, err := topology.NewXGFT([]int{4, 64, 64}, []int{1, 4, 2}, 72)
	if err != nil {
		b.Fatal(err)
	}
	return New(c)
}

// BenchmarkCoverBuild measures UpDown.Rebuild — the streaming compressed
// cover construction — on the 4096-leaf XGFT, and reports the compressed
// cover footprint next to what plain N1-bit bitsets would cost.
func BenchmarkCoverBuild(b *testing.B) {
	u := benchUpDown(b)
	for i := 0; i < b.N; i++ {
		u.Rebuild()
	}
	c := u.Clos()
	l := c.Levels()
	words := (c.LevelSize(1) + 63) / 64
	sets := 0
	for r := 0; r < l; r++ {
		for lev := 1; lev <= l-r; lev++ {
			sets += c.LevelSize(lev)
		}
	}
	b.ReportMetric(float64(u.CoverBytes()), "cover-bytes")
	b.ReportMetric(float64(sets*words*8), "plain-bytes")
}
