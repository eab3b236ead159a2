package analysis

import (
	"fmt"

	"rfclos/internal/rng"
	"rfclos/internal/simnet"
	"rfclos/internal/traffic"
)

// AblationOptions configures the design-choice ablations.
type AblationOptions struct {
	Run
	Scale Scale
	Load  float64 // offered load, default 0.9 (near saturation, where the knobs matter)
	Reps  int
	Sim   simnet.Config
}

// Ablations quantifies the simulator/routing design choices DESIGN.md calls
// out, on the equal-resources RFC:
//
//   - virtual-channel count (Table 2 uses 4): HoL-blocking relief;
//   - per-VC buffer depth (Table 2 uses 4 packets);
//   - request-refresh period (1 = INSEE's re-randomized request per cycle;
//     larger trades adaptivity for simulation speed).
//
// Each row reports accepted load and latency at the configured offered
// load under uniform traffic. The whole (knob, value, rep) grid runs as
// independent jobs on the worker pool, each drawing its stream from its own
// coordinates, so the report is byte-identical for any opts.Workers.
func Ablations(opts AblationOptions) (*Report, error) {
	if opts.Scale == "" {
		opts.Scale = ScaleSmall
	}
	if opts.Load <= 0 {
		opts.Load = 0.9
	}
	if opts.Reps <= 0 {
		opts.Reps = 2
	}
	opts.Run = opts.Run.withDefaults()
	sc := Scenarios(opts.Scale)[0]
	rfc, ud, err := buildRoutableRFC(sc.RFC, rng.At(opts.Seed, rng.StringCoord("ablation/topology/RFC")))
	if err != nil {
		return nil, err
	}

	g := rowGrid{reps: opts.Reps, Run: opts.Run}
	var mutate []func(*simnet.Config)
	knob := func(name string, value int, set func(*simnet.Config)) {
		g.rows = append(g.rows, keyedRow{key: fmt.Sprintf("%s=%d", name, value),
			cells:  []Cell{Str(name), Int(value)},
			coords: []uint64{rng.StringCoord("ablation/" + name), uint64(value)}})
		mutate = append(mutate, set)
	}
	for _, vcs := range []int{1, 2, 4, 8} {
		knob("virtual-channels", vcs, func(c *simnet.Config) { c.VCs = vcs })
	}
	for _, buf := range []int{1, 2, 4, 8} {
		knob("buffer-packets", buf, func(c *simnet.Config) { c.BufferPackets = buf })
	}
	for _, rr := range []int{1, 4, 16} {
		knob("request-refresh", rr, func(c *simnet.Config) { c.RequestRefresh = rr })
	}
	// Routing policy: 0 = random per-request (Table 2), 1 = deterministic
	// D-mod-K flow hashing.
	knob("hash-routing", 0, func(c *simnet.Config) { c.HashRouting = false })
	knob("hash-routing", 1, func(c *simnet.Config) { c.HashRouting = true })
	// Reception model: 0 = 1 phit/cycle NIC, 1 = infinite sink.
	knob("infinite-sink", 0, func(c *simnet.Config) { c.InfiniteSink = false })
	knob("infinite-sink", 1, func(c *simnet.Config) { c.InfiniteSink = true })

	rep := &Report{
		Title: fmt.Sprintf("Ablations: simulator design knobs (%s equal-resources RFC, uniform @ %.2f)",
			opts.Scale, opts.Load),
		Header: []string{"knob", "value", "accepted", "latency"},
	}
	err = g.addTo(rep, func(row int, stream *rng.Rand) (simnet.Result, error) {
		cfg := opts.Sim
		mutate[row](&cfg)
		cfg.Seed = stream.Uint64()
		return simnet.New(rfc, ud, traffic.NewUniform(rfc.Terminals()), cfg).Run(opts.Load), nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
