package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/service"
	"rfclos/internal/service/client"
	"rfclos/internal/topology"
)

// clients bounds the connections and client goroutines of the serving
// workloads to the two cores the benchmark is sized for.
const clients = 2

// setupReps is how many times a serving run repeats its set-up; setup_s is
// the median.
const setupReps = 9

// build is one of the two topologies the serving workloads keep cached.
type build struct {
	name string
	spec service.Spec
	key  string
	topo *service.Topology
}

// rfcA is the RFC build: radix 36, 3 levels, 648 leaves, 11,664 terminals.
// Its generation seed comes from the run seed; it gets the dense index.
func rfcA(seed uint64) service.Spec {
	return service.Spec{Kind: "rfc", Radix: 36, Levels: 3, Leaves: 648, Seed: seed}
}

// xgftWide is the XGFT build: 16,384 leaves, 65,536 terminals. It gets the
// succinct index.
func xgftWide() service.Spec {
	return service.Spec{Kind: "xgft", M: []int{4, 8, 2048}, W: []int{1, 8, 2}}
}

// derive returns a nonzero seed for one named input of the run.
func derive(seed uint64, label string, coords ...uint64) uint64 {
	s := rng.DeriveSeed(seed, append([]uint64{rng.StringCoord("perfbench/" + label)}, coords...)...)
	if s == 0 {
		s = 1
	}
	return s
}

// rfcd is an in-process rfcd behind a loopback listener with the two
// cached builds in place.
type rfcd struct {
	srv    *service.Server
	hs     *http.Server
	tr     *http.Transport
	served chan error
	base   string
	builds []*build
}

// startRFCD starts the server and builds both topologies through the API.
func startRFCD(ctx context.Context, seed uint64) (*rfcd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	srv := service.New(service.Options{})
	d := &rfcd{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		tr:     &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	c := d.client()
	for _, b := range []*build{{name: "rfc-A", spec: rfcA(derive(seed, "rfc-A"))}, {name: "xgft-wide", spec: xgftWide()}} {
		sum, err := c.Build(ctx, b.spec)
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("building %s: %w", b.name, err)
		}
		t, ok := srv.Cache().Lookup(sum.Key)
		if !ok {
			d.stop()
			return nil, fmt.Errorf("%s missing from the cache after its build", b.name)
		}
		b.key, b.topo = sum.Key, t
		d.builds = append(d.builds, b)
	}
	return d, nil
}

func (d *rfcd) client() *client.Client {
	c := client.New(d.base)
	c.HTTPClient = &http.Client{Transport: d.tr}
	return c
}

// stop shuts the server down and waits for its serve loop to return.
func (d *rfcd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	d.tr.CloseIdleConnections()
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve loop:", err)
	}
}

// setupRFCD starts rfcd setupReps times, keeping the last, and records
// setup_s (median) and heap_mb (live heap with the last server up).
func setupRFCD(ctx context.Context, o *outcome, seed uint64) (*rfcd, error) {
	var d *rfcd
	ts := make([]float64, setupReps)
	for i := range ts {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startRFCD(ctx, seed); err != nil {
			return nil, err
		}
		ts[i] = time.Since(start).Seconds()
	}
	o.e2e["setup_s"] = median(ts)
	o.e2e["heap_mb"] = heapMB()
	return d, nil
}

// measureBuildLayers times, from outside, what a build of each cached
// topology costs layer by layer (topology wiring, RFC generation, covers
// and turn index) and what routing queries cost on it. Each metric is
// reported per build and summed (times, bytes) or averaged (per-query ns)
// over both.
func measureBuildLayers(o *outcome, seed uint64, builds []*build) {
	perQuery := []string{"routing.minturn_index_ns", "routing.minturn_cover_ns", "routing.pathat_ns"}
	summed := []string{"routing.covers_ms", "routing.index_ms", "routing.cover_bytes", "routing.index_bytes",
		"topology.wire_ms", "topology.store_bytes"}
	for _, b := range builds {
		per := map[string]float64{}
		t := b.topo
		measureQueries(per, seed, t)
		var ud *routing.UpDown
		per["routing.covers_ms"] = 1e3 * medianOf(3, func() { ud = routing.New(t.Clos) })
		per["routing.cover_bytes"] = float64(ud.CoverBytes())
		var ix routing.TurnIndex
		per["routing.index_ms"] = 1e3 * medianOf(3, func() { ix = routing.NewTurnIndex(ud, service.DefaultDenseIndexBytes) })
		per["routing.index_bytes"] = float64(ix.SizeBytes())
		per["topology.store_bytes"] = float64(t.Clos.StoreBytes())
		switch b.spec.Kind {
		case "rfc":
			p := core.Params{Radix: b.spec.Radix, Levels: b.spec.Levels, Leaves: b.spec.Leaves}
			per["topology.wire_ms"] = 1e3 * medianOf(3, func() { mustOK(core.Generate(p, rng.New(b.spec.Seed))) })
			attempts := 0
			o.layer["core.generate_ms"] += 1e3 * medianOf(3, func() {
				_, _, attempts, _ = core.GenerateRoutable(p, 50, rng.New(b.spec.Seed))
			})
			o.layer["core.attempts"] += float64(attempts)
		case "xgft":
			per["topology.wire_ms"] = 1e3 * medianOf(3, func() { mustOK(topology.NewXGFT(b.spec.M, b.spec.W, b.spec.Radix)) })
		}
		for name, v := range per {
			layer, metric, _ := strings.Cut(name, ".")
			o.layer[layer+"."+b.name+"."+metric] = v
		}
		for _, name := range summed {
			o.layer[name] += per[name]
		}
		for _, name := range perQuery {
			o.layer[name] += per[name] / float64(len(builds))
		}
	}
}

// measureQueries times the routing queries a path request makes on t: the
// index and cover-set turn lookups and the path walk (with its rng.At
// stream), each as the median over batches of a fixed pair sample.
func measureQueries(per map[string]float64, seed uint64, t *service.Topology) {
	const pairs = 4096
	n1 := t.Clos.LevelSize(1)
	r := rng.New(derive(seed, "queries"))
	src, dst, turn := make([]int, pairs), make([]int, pairs), make([]int, pairs)
	for i := range src {
		src[i], dst[i] = r.Intn(n1), r.Intn(n1)
		turn[i] = t.Router.MinTurn(src[i], dst[i])
	}
	per["routing.minturn_index_ns"] = nsPerOp(5, 1<<20, func(i int) { sink += t.Index.MinTurn(src[i%pairs], dst[i%pairs]) })
	per["routing.minturn_cover_ns"] = nsPerOp(5, 1<<18, func(i int) { sink += t.Router.MinTurn(src[i%pairs], dst[i%pairs]) })
	pathCoord := rng.StringCoord("rfcd/path")
	per["routing.pathat_ns"] = nsPerOp(5, 1<<15, func(i int) {
		k := i % pairs
		stream := rng.At(seed, pathCoord, uint64(src[k]), uint64(dst[k]))
		sink += len(t.Router.PathAt(src[k], dst[k], turn[k], stream))
	})
}

// mustOK discards a constructor's result; the inputs are fixed, valid
// parameters, so an error is a bug.
func mustOK[T any](_ T, err error) {
	if err != nil {
		panic(err)
	}
}

// cacheCounters copies the cache counters of rfcd's /metrics registry.
func cacheCounters(o *outcome, srv *service.Server) {
	reg := srv.Metrics()
	for name, metric := range map[string]string{
		"service.cache_hits":   "rfcd_cache_hits_total",
		"service.cache_misses": "rfcd_cache_misses_total",
		"service.builds":       "rfcd_builds_total",
		"service.evictions":    "rfcd_cache_evictions_total",
		"service.cache_bytes":  "rfcd_cache_bytes",
	} {
		o.layer[name] = float64(reg.Value(metric))
	}
}
