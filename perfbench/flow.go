package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/service"
	"rfclos/internal/service/client"
	"rfclos/internal/traffic"
)

// solveCase is one POST /v1/throughput request of the flow sequence.
type solveCase struct {
	build  int // index into rfcd.builds: 0 rfc-A, 1 xgft-wide
	matrix string
}

// flowSequence is the fixed request sequence. On xgft-wide random-pairing
// path resolution dominates the solve; on rfc-A uniform and hotspot
// water-filling does.
var flowSequence = []solveCase{{1, "random-pairing"}, {0, "uniform"}, {0, "hotspot"}}

// flowWorkload measures flow-level throughput solves through rfcd: two
// closed-loop clients repeat the fixed sequence, client i starting at
// request i, until the window has passed.
func flowWorkload(rn run) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	d, err := setupRFCD(ctx, o, rn.seed)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	reqs := make([]service.ThroughputRequest, len(flowSequence))
	for i, sc := range flowSequence {
		reqs[i] = service.ThroughputRequest{Key: d.builds[sc.build].key, Matrix: sc.matrix, Load: 1,
			Seed: derive(rn.seed, "throughput", uint64(i))}
	}
	logs := make([]*flowLog, clients)
	start := time.Now()
	deadline := start.Add(rn.window)
	var wg sync.WaitGroup
	for id := range logs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			logs[id] = driveFlowClient(ctx, d.client(), reqs, id, deadline)
		}(id)
	}
	wg.Wait()
	var passes []float64
	got := make([][]*service.ThroughputResponse, len(reqs))
	flowsDone, end := 0, start
	for _, l := range logs {
		o.attempted += l.attempted
		o.failed += l.failed
		passes = append(passes, l.passes...)
		for i := range got {
			got[i] = append(got[i], l.got[i]...)
		}
		flowsDone += l.flows
		if l.end.After(end) {
			end = l.end
		}
	}

	// Check every response against a direct solve of the same inputs.
	for i, sc := range flowSequence {
		b := d.builds[sc.build]
		res, sp := solveDirect(o, b, reqs[i], rn.traced)
		for _, resp := range got[i] {
			o.verify(resp.Flows == res.Flows && resp.Rounds == res.Rounds && resp.Accepted == res.Accepted,
				"POST /v1/throughput %s on %s: flows %d rounds %d accepted %v, direct solve %d %d %v",
				sc.matrix, b.name, resp.Flows, resp.Rounds, resp.Accepted, res.Flows, res.Rounds, res.Accepted)
		}
		if rn.traced {
			prefix := fmt.Sprintf("flow.%s.%s.", b.name, sc.matrix)
			o.layer[prefix+"resolve_s"] = sp.resolve
			o.layer[prefix+"waterfill_s"] = sp.solve - sp.resolve
			o.layer[prefix+"rounds"] = float64(res.Rounds)
			o.layer["flow.resolve_s"] += sp.resolve
			o.layer["flow.solve_s"] += sp.solve
			o.layer["flow.waterfill_s"] += sp.solve - sp.resolve
			o.layer["flow.rounds"] += float64(res.Rounds)
			o.layer["flow.sat_links"] += float64(res.SatLinks)
			o.layer["flow.flows"] += float64(res.Flows)
			o.layer["flow.unroutable"] += float64(res.Unroutable)
			o.layer["traffic.matrix_ms"] += sp.matrixMS
		}
	}
	o.e2e["p50_ms"] = 1e3 * median(passes)
	o.e2e["rate_per_s"] = float64(flowsDone) / end.Sub(start).Seconds()
	if !rn.traced {
		return o, nil
	}
	traceStart := time.Now()
	o.layer["traced.p50_ms"], o.layer["traced.rate_per_s"] = o.e2e["p50_ms"], o.e2e["rate_per_s"]
	cacheCounters(o, d.srv)
	measureBuildLayers(o, rn.seed, d.builds)
	o.layer["traced.extra_s"] = time.Since(traceStart).Seconds()
	return o, nil
}

// flowLog is what one throughput client saw.
type flowLog struct {
	attempted, failed int
	flows             int       // flows of the responses received
	passes            []float64 // seconds per pass over the sequence
	got               [][]*service.ThroughputResponse
	end               time.Time
}

func driveFlowClient(ctx context.Context, c *client.Client, reqs []service.ThroughputRequest, offset int, deadline time.Time) *flowLog {
	l := &flowLog{got: make([][]*service.ThroughputResponse, len(reqs))}
	passStart := time.Now()
	for k := 0; len(l.passes) == 0 || time.Now().Before(deadline); k++ {
		i := (offset + k) % len(reqs)
		l.attempted++
		if resp, err := c.Throughput(ctx, reqs[i]); err != nil {
			l.failed++
			fmt.Fprintf(os.Stderr, "perfbench: POST /v1/throughput %s: %v\n", reqs[i].Matrix, err)
		} else {
			l.flows += resp.Flows
			l.got[i] = append(l.got[i], resp)
		}
		if (k+1)%len(reqs) == 0 {
			l.passes = append(l.passes, time.Since(passStart).Seconds())
			passStart = time.Now()
		}
	}
	l.end = time.Now()
	return l
}

// solveSplit is a direct solve's time split, in seconds except matrixMS.
type solveSplit struct {
	matrixMS, resolve, solve float64
}

// solveDirect rebuilds the request's matrix and solve seed exactly as rfcd
// derives them and solves it with flow.Solve. When timed, it solves at
// Workers=1, which times the whole solve on one core, and also times matrix
// generation and a serial resolve of every flow on the per-flow streams
// Solve uses, which times path resolution alone.
func solveDirect(o *outcome, b *build, req service.ThroughputRequest, timed bool) (*flow.Result, solveSplit) {
	t := b.topo
	net := flow.NewClos(t.Clos, t.Router, t.Index)
	var m []traffic.Demand
	var solveSeed uint64
	gen := func() {
		stream := rng.At(req.Seed, rng.StringCoord("rfcd/throughput"))
		raw, err := traffic.NewMatrix(req.Matrix, net.Terminals(), stream)
		if err != nil {
			panic(err) // fixed, valid matrix names
		}
		m = traffic.ScaleMatrix(raw, req.Load)
		solveSeed = stream.Uint64()
	}
	var sp solveSplit
	workers := 0
	if timed {
		workers = 1
		sp.matrixMS = 1e3 * medianOf(3, gen)
		// Resolve the way Solve's first phase does, keeping every path.
		pathCoord := rng.StringCoord("flow/path")
		paths := make([][]int32, len(m))
		t0 := time.Now()
		for i, dm := range m {
			if dm.Rate > 0 {
				paths[i], _ = net.Resolve(dm.Src, dm.Dst, rng.At(solveSeed, pathCoord, uint64(i)), make([]int32, 0, 8))
			}
		}
		sp.resolve = time.Since(t0).Seconds()
	} else {
		gen()
	}
	t0 := time.Now()
	res, err := flow.Solve(net, m, flow.Options{Seed: solveSeed, Workers: workers})
	sp.solve = time.Since(t0).Seconds()
	if err != nil {
		o.verify(false, "direct solve %s on %s: %v", req.Matrix, b.name, err)
		return &flow.Result{}, sp
	}
	return res, sp
}
