package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"rfclos/internal/rng"
	"rfclos/internal/service"
	"rfclos/internal/service/client"
)

const (
	// coldBuildsPerSec is the rate of cold POST /v1/topology builds of
	// rfc-A with fresh seeds, about one request in a thousand at the
	// loop's read rate. The count per run is fixed by the window, so the
	// cache counters repeat exactly for a seed.
	coldBuildsPerSec = 12
	// pathsOneIn is the share of reads that are POST /v1/paths batches.
	pathsOneIn = 64
	// pathsBatch is the pair count of one batch.
	pathsBatch = 64
	// keepOneIn is the share of read responses kept for checking.
	keepOneIn = 16
)

// pathQuery is one GET /v1/path request.
type pathQuery struct {
	b        *build
	src, dst int
	seed     uint64
}

type pathSample struct {
	q    pathQuery
	body []byte
}

type batchSample struct {
	b     *build
	pairs [][2]int
	seed  uint64
	resp  *service.PathsResponse
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	ops, errs          int
	path, paths, build []float64 // latencies in ms
	pathSamples        []pathSample
	batchSamples       []batchSample
	end                time.Time
}

func (l *clientLog) fail(err error) {
	l.errs++
	fmt.Fprintln(os.Stderr, "perfbench: request failed:", err)
}

// serveWorkload measures rfcd serving: two closed-loop clients over
// loopback, mostly GET /v1/path with some POST /v1/paths batches, beside a
// fixed rate of cold builds issued by client 0.
func serveWorkload(rn run) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	d, err := setupRFCD(ctx, o, rn.seed)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	cold := int(rn.window.Seconds()*coldBuildsPerSec + 0.5)
	start := time.Now()
	deadline := start.Add(rn.window)
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for id := range logs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			builds := 0
			if id == 0 {
				builds = cold
			}
			logs[id] = driveClient(ctx, d, rng.New(derive(rn.seed, "client", uint64(id))), start, deadline, builds)
		}(id)
	}
	wg.Wait()

	var path []float64
	ops, end := 0, start
	for _, l := range logs {
		o.attempted += l.ops
		o.failed += l.errs
		ops += l.ops
		path = append(path, l.path...)
		if l.end.After(end) {
			end = l.end
		}
	}
	p50 := median(path)
	rate := float64(ops) / end.Sub(start).Seconds()
	o.e2e["p50_ms"], o.e2e["rate_per_s"] = p50, rate
	for _, l := range logs {
		for _, s := range l.pathSamples {
			want := expectedPath(s.q)
			o.verify(bytes.Equal(s.body, want), "GET /v1/path %s %d->%d seed %d: got %s want %s",
				s.q.b.name, s.q.src, s.q.dst, s.q.seed, s.body, want)
		}
		for _, s := range l.batchSamples {
			got, _ := json.Marshal(s.resp)
			want := expectedBatch(s)
			o.verify(bytes.Equal(got, want), "POST /v1/paths %s seed %d differs", s.b.name, s.seed)
		}
	}
	if !rn.traced {
		return o, nil
	}

	traceStart := time.Now()
	var paths, builds []float64
	for _, l := range logs {
		paths = append(paths, l.paths...)
		builds = append(builds, l.build...)
	}
	o.layer["traced.p50_ms"], o.layer["traced.rate_per_s"] = p50, rate
	o.layer["client.path_p99_ms"] = quantile(path, 0.99)
	o.layer["client.paths_p50_ms"] = median(paths)
	o.layer["client.paths_p99_ms"] = quantile(paths, 0.99)
	o.layer["client.build_p50_ms"] = median(builds)
	cacheCounters(o, d.srv)
	handlerUS := handlerPathUS(d, rn.seed)
	o.layer["service.handler_path_us"] = handlerUS
	o.layer["service.transport_path_us"] = 1e3*p50 - handlerUS
	measureBuildLayers(o, rn.seed, d.builds)
	o.layer["traced.extra_s"] = time.Since(traceStart).Seconds()
	return o, nil
}

// driveClient runs one closed-loop client until the deadline. Client 0 also
// issues coldBuilds cold builds, due at evenly spaced times in the window;
// it keeps going past the deadline until all of them are done.
func driveClient(ctx context.Context, d *rfcd, r *rng.Rand, start, deadline time.Time, coldBuilds int) *clientLog {
	c := d.client()
	l := &clientLog{}
	// Resolve the cached keys the way a client would: a warm POST
	// /v1/topology per build, each a cache hit.
	for _, b := range d.builds {
		l.ops++
		if _, err := c.Build(ctx, b.spec); err != nil {
			l.fail(err)
		}
	}
	issued := 0
	for {
		now := time.Now()
		due := int(now.Sub(start).Seconds()*coldBuildsPerSec + 0.5)
		if issued < coldBuilds && (issued < due || !now.Before(deadline)) {
			coldBuild(ctx, c, l, d.builds[0].spec, issued)
			issued++
			continue
		}
		if !now.Before(deadline) {
			break
		}
		b := d.builds[r.Intn(len(d.builds))]
		n1 := b.topo.Clos.LevelSize(1)
		seed := r.Uint64() >> 1
		l.ops++
		if r.Intn(pathsOneIn) == 0 {
			pairs := make([][2]int, pathsBatch)
			for i := range pairs {
				pairs[i] = [2]int{r.Intn(n1), r.Intn(n1)}
			}
			t0 := time.Now()
			resp, err := c.Paths(ctx, b.key, pairs, seed)
			l.paths = append(l.paths, ms(time.Since(t0)))
			if err != nil {
				l.fail(err)
			} else if len(l.paths)%keepOneIn == 1 {
				l.batchSamples = append(l.batchSamples, batchSample{b, pairs, seed, resp})
			}
			continue
		}
		q := pathQuery{b, r.Intn(n1), r.Intn(n1), seed}
		t0 := time.Now()
		body, err := c.PathBytes(ctx, b.key, q.src, q.dst, q.seed)
		l.path = append(l.path, ms(time.Since(t0)))
		if err != nil {
			l.fail(err)
		} else if len(l.path)%keepOneIn == 1 {
			l.pathSamples = append(l.pathSamples, pathSample{q, body})
		}
	}
	l.end = time.Now()
	return l
}

// coldBuild requests a build of rfc-A under the k-th fresh seed and checks
// the summary describes it.
func coldBuild(ctx context.Context, c *client.Client, l *clientLog, hot service.Spec, k int) {
	sp := hot
	sp.Seed = derive(hot.Seed, "cold", uint64(k))
	l.ops++
	t0 := time.Now()
	sum, err := c.Build(ctx, sp)
	l.build = append(l.build, ms(time.Since(t0)))
	switch {
	case err != nil:
		l.fail(err)
	case sum.Key != sp.Key() || !sum.Routable || sum.Terminals != 11664:
		l.fail(fmt.Errorf("cold build %s: summary key %s routable %v terminals %d", sp.Canonical(), sum.Key, sum.Routable, sum.Terminals))
	}
}

// expectedPath is the GET /v1/path body rfcd must return for q: the turn
// from the cover sets (not the index) and the path PathAt walks on the
// request's rng.At(seed, "rfcd/path", src, dst) stream.
func expectedPath(q pathQuery) []byte {
	r := expectedResult(q.b, q.src, q.dst, q.seed)
	body, _ := json.Marshal(service.PathResponse{Key: q.b.key, Src: q.src, Dst: q.dst,
		MinTurn: r.MinTurn, Routable: r.Routable, Hops: r.Hops, Path: r.Path, Seed: q.seed})
	return append(body, '\n')
}

func expectedBatch(s batchSample) []byte {
	want := service.PathsResponse{Key: s.b.key, Seed: s.seed, Count: len(s.pairs)}
	for _, p := range s.pairs {
		want.Paths = append(want.Paths, expectedResult(s.b, p[0], p[1], s.seed))
	}
	body, _ := json.Marshal(want)
	return body
}

func expectedResult(b *build, src, dst int, seed uint64) service.PathResult {
	t := b.topo
	turn := t.Router.MinTurn(src, dst)
	res := service.PathResult{Src: src, Dst: dst, MinTurn: &turn, Routable: turn >= 0}
	if turn >= 0 {
		res.Path = t.Router.PathAt(src, dst, turn, rng.At(seed, rng.StringCoord("rfcd/path"), uint64(src), uint64(dst)))
		res.Hops = len(res.Path) - 1
	}
	return res
}

// handlerPathUS returns the median time, in µs, of the rfcd handler alone
// serving GET /v1/path into a recorder, over both builds.
func handlerPathUS(d *rfcd, seed uint64) float64 {
	const n = 20000
	h := d.srv.Handler()
	r := rng.New(derive(seed, "handler"))
	ts := make([]float64, n)
	for i := range ts {
		b := d.builds[i%len(d.builds)]
		n1 := b.topo.Clos.LevelSize(1)
		q := url.Values{}
		q.Set("key", b.key)
		q.Set("src", strconv.Itoa(r.Intn(n1)))
		q.Set("dst", strconv.Itoa(r.Intn(n1)))
		q.Set("seed", strconv.FormatUint(r.Uint64()>>1, 10))
		req := httptest.NewRequest("GET", "/v1/path?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		ts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		sink += rec.Code
	}
	return median(ts)
}
