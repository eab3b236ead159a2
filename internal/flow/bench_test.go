// Solver benchmark at datacenter scale: a uniform matrix over a 64K-leaf
// XGFT (262,144 terminals, one flow per terminal), resolved and
// water-filled end to end. scripts/bench.sh records the flows/sec rate as
// the flow-solver datapoint in BENCH_engine.json.
package flow_test

import (
	"testing"

	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

func BenchmarkFlowSolve(b *testing.B) {
	m3 := 65536 / 8
	c, err := topology.NewXGFT([]int{4, 8, m3}, []int{1, 8, 2}, m3)
	if err != nil {
		b.Fatal(err)
	}
	net := flow.NewClosNetwork(routing.New(c))
	m := traffic.UniformMatrix(net.Terminals(), 1, rng.At(1, rng.StringCoord("bench/flow")))

	b.ResetTimer()
	var res *flow.Result
	for i := 0; i < b.N; i++ {
		res, err = flow.Solve(net, m, flow.Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Unroutable != 0 || res.Flows != len(m) {
		b.Fatalf("solve routed %d/%d flows with %d unroutable", res.Flows, len(m), res.Unroutable)
	}
	b.ReportMetric(float64(res.Flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(res.Accepted, "accepted")
}
