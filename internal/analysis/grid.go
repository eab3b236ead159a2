package analysis

import (
	"fmt"
	"slices"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/simnet"
)

// Run is the execution context every engine-backed exhibit shares. Each
// job draws from a stream derived from Seed and its own coordinates, so a
// report is byte-identical for any Workers value, and the partial reports
// of a sharded run merge byte-identically into the full one.
type Run struct {
	// Seed drives every random choice; 0 means 1.
	Seed uint64
	// Workers sizes the worker pool the job grid fans out on; 0 means one
	// per CPU (engine.Workers).
	Workers int
	// Shard restricts execution to the jobs this process owns (see
	// engine.Shard); the zero value runs the whole grid.
	Shard engine.Shard
	// Progress, when non-nil, receives one line per completed job: a
	// series-sweep point, a row-grid repetition or a Monte-Carlo trial. It
	// is called from worker goroutines, so it must be safe for concurrent
	// use when Workers != 1 (engine.Progress builds a safe, counting sink).
	Progress func(string)
}

func (r Run) withDefaults() Run {
	r.Seed = defaultSeed(r.Seed)
	return r
}

// defaultSeed maps the zero seed to 1, the repository-wide default.
func defaultSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// gridJob is one (network, pattern, x, repetition) point of a series sweep;
// x is an offered load or a fault count.
type gridJob struct {
	net     int // index into seriesGrid.nets
	pattern string
	x       float64
	rep     int
}

// seriesGrid is the one (network × pattern × x × rep) job grid behind every
// series sweep: Figures 8-10 and 12, the flow-backend exhibits and the RRN
// fault extension. Jobs run network-major, then pattern, then x, then rep.
// Each job draws from rng.At(seed, StringCoord(label+network),
// StringCoord(pattern), xBits(x), rep), a pure function of its coordinates,
// so reports are byte-identical for any worker count and shard partials
// merge byte-identically. Jobs read shared network state that is immutable
// during the sweep.
type seriesGrid struct {
	label    string                  // stream label prefix of the network name
	nets     []string                // network names, the series prefixes
	xs       func(net int) []float64 // the x coordinates swept on each network
	xBits    func(x float64) uint64  // the x stream coordinate
	patterns []string
	reps     int
	suffixes []string // series name suffixes, one per point value
	Run
}

// run executes the jobs this shard owns on the worker pool and aggregates
// them into one series per (network, pattern, suffix), named
// network/pattern+suffix. point returns one value per suffix. Every job is
// Expected, fixing row order and completeness counts, but only owned jobs
// contribute observations.
func (g seriesGrid) run(point func(j gridJob, stream *rng.Rand) ([]float64, error)) (*seriesSet, error) {
	var jobs []gridJob
	for ni := range g.nets {
		for _, pat := range g.patterns {
			for _, x := range g.xs(ni) {
				for rep := 0; rep < g.reps; rep++ {
					jobs = append(jobs, gridJob{net: ni, pattern: pat, x: x, rep: rep})
				}
			}
		}
	}
	values, err := engine.RunShard(len(jobs), g.Workers, g.Shard, func(i int) ([]float64, error) {
		j := jobs[i]
		return point(j, rng.At(g.Seed, rng.StringCoord(g.label+g.nets[j.net]),
			rng.StringCoord(j.pattern), g.xBits(j.x), uint64(j.rep)))
	})
	if err != nil {
		return nil, err
	}
	sset := &seriesSet{}
	var cols []*metrics.JobCollector
	group := ""
	for i, j := range jobs {
		if name := g.nets[j.net] + "/" + j.pattern; name != group {
			group, cols = name, cols[:0]
			for _, s := range g.suffixes {
				cols = append(cols, sset.col(name+s))
			}
		}
		for k, c := range cols {
			c.Expect(j.x)
			if g.Shard.Owns(i) {
				c.Observe(j.x, i, values[i][k])
			}
		}
	}
	return sset, nil
}

// keyedRow is one row of a rowGrid: its report key, its leading static
// cells and the stream coordinates its repetitions share.
type keyedRow struct {
	key    string
	cells  []Cell
	coords []uint64
}

// rowGrid is the (row × rep) job grid behind the keyed-row exhibits: the
// ablations, the Jellyfish comparison and the adversarial permutation. Job
// i is row i/reps, repetition i%reps, and draws from rng.At(seed,
// row.coords..., rep).
type rowGrid struct {
	rows []keyedRow
	reps int
	Run
}

// addTo executes the jobs this shard owns on the worker pool, each one
// cycle-engine point, and appends one keyed row per grid row to rep: the
// row's static cells, then the mean accepted load and mean latency over the
// owned repetitions. Each finished job reports one Progress line.
func (g rowGrid) addTo(rep *Report, point func(row int, stream *rng.Rand) (simnet.Result, error)) error {
	results, err := engine.RunShard(len(g.rows)*g.reps, g.Workers, g.Shard, func(i int) (simnet.Result, error) {
		row := g.rows[i/g.reps]
		res, err := point(i/g.reps, rng.At(g.Seed, slices.Concat(row.coords, []uint64{uint64(i % g.reps)})...))
		if err == nil && g.Progress != nil {
			g.Progress(fmt.Sprintf("%s rep=%d accepted=%.3f latency=%.1f", row.key, i%g.reps, res.AcceptedLoad, res.AvgLatency))
		}
		return res, err
	})
	if err != nil {
		return err
	}
	for ri, row := range g.rows {
		var acc, lat []metrics.Obs
		for i := ri * g.reps; i < (ri+1)*g.reps; i++ {
			if g.Shard.Owns(i) {
				acc = append(acc, metrics.Obs{Job: i, V: results[i].AcceptedLoad})
				lat = append(lat, metrics.Obs{Job: i, V: results[i].AvgLatency})
			}
		}
		rep.AddKeyed(row.key, append(slices.Clip(row.cells), Mean(acc, g.reps, "%.4f"), Mean(lat, g.reps, "%.1f"))...)
	}
	return nil
}

// trialObs runs this shard's trials of the cell named label on the worker
// pool, trial i drawing from rng.At(seed, i), and returns the owned outcomes
// as job-indexed observations in trial order, ready for a mergeable Mean
// cell. Unowned trials never run. Each finished trial reports one Progress
// line.
func trialObs(label string, trials int, seed uint64, run Run, trial func(r *rng.Rand) (float64, error)) ([]metrics.Obs, error) {
	values, err := engine.RunShard(trials, run.Workers, run.Shard, func(i int) (float64, error) {
		v, err := trial(rng.At(seed, uint64(i)))
		if err == nil && run.Progress != nil {
			run.Progress(fmt.Sprintf("%s trial=%d value=%g", label, i, v))
		}
		return v, err
	})
	if err != nil {
		return nil, err
	}
	obs := make([]metrics.Obs, 0, len(values))
	for i, v := range values {
		if run.Shard.Owns(i) {
			obs = append(obs, metrics.Obs{Job: i, V: v})
		}
	}
	return obs, nil
}
