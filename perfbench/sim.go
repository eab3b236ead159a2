package main

import (
	"fmt"
	"math"
	"time"

	"rfclos/internal/analysis"
	"rfclos/internal/core"
	"rfclos/internal/exhibit"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// simCycles is the measured window of every simulation point; the warm-up
// is a quarter of it, as rfcpaper's -cycles flag sets it.
const simCycles = 1000

// simLoads is the reduced offered-load grid of the fig8 runs.
var simLoads = []float64{0.5, 0.9}

// simWorkers is the exhibit's worker count; the check run uses 1.
const simWorkers = 2

// simSetupReps is how many times a sim run builds the scenario networks.
// One build takes about 1.5 ms, so the median needs more samples than a
// serving set-up.
const simSetupReps = 51

// scenarioNet is one network of the fig8 scenario, built the way the
// exhibit builds it.
type scenarioNet struct {
	name     string
	c        *topology.Clos
	ud       *routing.UpDown
	rfc      *core.Params // nil for the CFT
	coord    string       // generation stream label of an RFC
	attempts int
}

// buildScenario builds the fig8 scenario's CFT and two RFCs with their
// routers, under the stream labels the exhibit derives from seed.
func buildScenario(seed uint64) ([]*scenarioNet, error) {
	sc := analysis.Scenarios(analysis.ScaleSmall)[0]
	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	nets := []*scenarioNet{{name: fmt.Sprintf("CFT-%dL-R%d", sc.CFT.Levels, sc.CFT.Radix), c: cft, ud: routing.New(cft)}}
	for _, r := range []struct {
		p     *core.Params
		coord string
	}{{&sc.RFC, "scenario/topology/RFC"}, {sc.AltRFC, "scenario/topology/AltRFC"}} {
		c, ud, attempts, err := core.GenerateRoutable(*r.p, 50, rng.At(seed, rng.StringCoord(r.coord)))
		if err != nil {
			return nil, err
		}
		nets = append(nets, &scenarioNet{name: fmt.Sprintf("RFC-%dL-R%d", r.p.Levels, r.p.Radix),
			c: c, ud: ud, rfc: r.p, coord: r.coord, attempts: attempts})
	}
	return nets, nil
}

// simWorkload runs the fig8 exhibit on the cycle backend, repeatedly until
// the window has passed, and checks every report against a workers=1 run.
func simWorkload(rn run) (*outcome, error) {
	o := newOutcome()
	var nets []*scenarioNet
	ts := make([]float64, simSetupReps)
	for i := range ts {
		start := time.Now()
		var err error
		if nets, err = buildScenario(rn.seed); err != nil {
			return nil, err
		}
		ts[i] = time.Since(start).Seconds()
	}
	o.e2e["setup_s"] = median(ts)
	o.e2e["heap_mb"] = heapMB()

	ex, ok := exhibit.Lookup("fig8")
	if !ok {
		return nil, fmt.Errorf("fig8 exhibit is not registered")
	}
	params := exhibit.Params{Scale: analysis.ScaleSmall, Seed: rn.seed, Reps: 1, Cycles: simCycles,
		Workers: simWorkers, Loads: simLoads}
	var runs []float64
	var reports []string
	deadline := time.Now().Add(rn.window)
	for len(runs) == 0 || time.Now().Before(deadline) {
		o.attempted++
		t0 := time.Now()
		rep, err := ex.Run(params)
		runs = append(runs, time.Since(t0).Seconds())
		if err != nil {
			o.verify(false, "fig8: %v", err)
			continue
		}
		reports = append(reports, rep.Format())
	}
	params.Workers = 1
	o.attempted++
	ref, err := ex.Run(params)
	if err != nil {
		o.verify(false, "fig8 workers=1: %v", err)
	} else {
		want := ref.Format()
		for _, r := range reports {
			o.verify(r == want, "fig8 report at workers=%d differs from workers=1:\n%s\nwant:\n%s",
				simWorkers, r, want)
		}
	}
	exhibitS := median(runs)
	points := len(nets) * len(traffic.Names()) * len(simLoads)
	o.e2e["p50_ms"] = 1e3 * exhibitS
	o.e2e["rate_per_s"] = float64(points) / exhibitS
	if !rn.traced {
		return o, nil
	}

	traceStart := time.Now()
	o.layer["traced.p50_ms"], o.layer["traced.rate_per_s"] = o.e2e["p50_ms"], o.e2e["rate_per_s"]
	for _, n := range nets {
		var ud *routing.UpDown
		o.layer["routing.covers_ms"] += 1e3 * medianOf(3, func() { ud = routing.New(n.c) })
		o.layer["routing.cover_bytes"] += float64(ud.CoverBytes())
		o.layer["topology.store_bytes"] += float64(n.c.StoreBytes())
		if n.rfc == nil {
			sc := analysis.Scenarios(analysis.ScaleSmall)[0]
			o.layer["topology.wire_ms"] += 1e3 * medianOf(3, func() { mustOK(sc.CFT.Build()) })
			continue
		}
		p := *n.rfc
		o.layer["topology.wire_ms"] += 1e3 * medianOf(3, func() {
			mustOK(core.Generate(p, rng.At(rn.seed, rng.StringCoord(n.coord))))
		})
		o.layer["core.generate_ms"] += 1e3 * medianOf(3, func() {
			_, _, _, _ = core.GenerateRoutable(p, 50, rng.At(rn.seed, rng.StringCoord(n.coord)))
		})
		o.layer["core.attempts"] += float64(n.attempts)
	}
	simPoints(o, rn.seed, nets)
	o.layer["traced.extra_s"] = time.Since(traceStart).Seconds()
	return o, nil
}

// simPoints reruns every point of the exhibit's grid serially through
// simnet.New(...).Run, on the job streams the sweep derives, and records
// the engine's host speed and delivered work.
func simPoints(o *outcome, seed uint64, nets []*scenarioNet) {
	cycles, host, accepted, points := 0.0, 0.0, 0.0, 0
	for _, n := range nets {
		for _, pattern := range traffic.Names() {
			for _, load := range simLoads {
				stream := rng.At(seed, rng.StringCoord(n.name), rng.StringCoord(pattern), math.Float64bits(load), 0)
				pat, err := traffic.New(pattern, n.c.Terminals(), stream)
				if err != nil {
					o.verify(false, "pattern %s: %v", pattern, err)
					continue
				}
				cfg := simnet.Config{MeasureCycles: simCycles, WarmupCycles: simCycles / 4, Seed: stream.Uint64()}
				t0 := time.Now()
				res := simnet.New(n.c, n.ud, pat, cfg).Run(load)
				host += time.Since(t0).Seconds()
				cycles += simCycles + simCycles/4
				accepted += res.AcceptedLoad
				points++
				o.layer["simcore.delivered"] += float64(res.Delivered)
			}
		}
	}
	o.layer["simcore.cycles_per_s"] = cycles / host
	o.layer["simcore.accepted"] = accepted / float64(points)
}
