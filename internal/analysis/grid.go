package analysis

import (
	"rfclos/internal/engine"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
)

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
	seed     uint64
	workers  int
	shard    engine.Shard
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
	values, err := engine.RunShard(len(jobs), g.workers, g.shard, func(i int) ([]float64, error) {
		j := jobs[i]
		return point(j, rng.At(g.seed, rng.StringCoord(g.label+g.nets[j.net]),
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
			if g.shard.Owns(i) {
				c.Observe(j.x, i, values[i][k])
			}
		}
	}
	return sset, nil
}
