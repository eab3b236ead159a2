package service_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"rfclos/internal/service"
	"rfclos/internal/service/client"
)

// TestConcurrentRequestsSingleflightAndDeterminism is the serving-layer
// acceptance test: it fires >= 64 concurrent requests for a mix of
// identical and distinct topology keys against one shared server and
// asserts (a) singleflight — every key is built exactly once no matter how
// many requests raced on it — and (b) determinism under concurrency — each
// /v1/path response is byte-identical to the same query answered by a
// fresh server that saw no concurrency at all. Run under -race in CI.
func TestConcurrentRequestsSingleflightAndDeterminism(t *testing.T) {
	specs := []service.Spec{
		{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1},
		{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 2},
		{Kind: "rfc", Radix: 8, Levels: 2, Leaves: 8, Seed: 1},
		{Kind: "cft", Radix: 8, Levels: 3},
	}
	const perSpec = 16 // 4 specs x 16 = 64 concurrent requests
	total := perSpec * len(specs)

	shared := service.New(service.Options{CacheSize: 16})
	ts := httptest.NewServer(shared.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	type result struct {
		spec int
		sum  *service.TopologySummary
		path []byte
		err  error
	}
	results := make([]result, total)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < total; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // line every goroutine up before the first request
			res := result{spec: i % len(specs)}
			sp := specs[res.spec]
			res.sum, res.err = c.Build(ctx, sp)
			if res.err == nil {
				// Vary (src, dst) so cached path lookups read different cover
				// sets concurrently; every spec has at least 8 leaves.
				src := i % 4
				dst := 7 - i%4
				res.path, res.err = c.PathBytes(ctx, res.sum.Key, src, dst, 7)
			}
			results[i] = res
		}(i)
	}
	start.Done()
	done.Wait()

	keys := map[int]string{}
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("request %d (spec %d): %v", i, res.spec, res.err)
		}
		if prev, ok := keys[res.spec]; ok && prev != res.sum.Key {
			t.Fatalf("spec %d resolved to two keys: %s and %s", res.spec, prev, res.sum.Key)
		}
		keys[res.spec] = res.sum.Key
	}
	if len(keys) != len(specs) {
		t.Fatalf("%d distinct keys for %d distinct specs", len(keys), len(specs))
	}
	for spec, key := range keys {
		if n := shared.Cache().BuildsFor(key); n != 1 {
			t.Errorf("spec %d key %s: %d builds under %d concurrent requests, want exactly 1",
				spec, key, n, perSpec)
		}
	}

	// A fresh, unshared server answering the same queries sequentially must
	// produce byte-identical path responses — concurrency and cache state
	// leave no trace in response bodies.
	fresh := service.New(service.Options{CacheSize: 16})
	ts2 := httptest.NewServer(fresh.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)
	for i, res := range results {
		sp := specs[res.spec]
		if _, err := c2.Build(ctx, sp); err != nil {
			t.Fatal(err)
		}
		src := i % 4
		dst := 7 - i%4
		want, err := c2.PathBytes(ctx, res.sum.Key, src, dst, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.path, want) {
			t.Fatalf("request %d: concurrent path response differs from fresh server:\n%s\n%s",
				i, res.path, want)
		}
	}
}

// TestConcurrentMixedEndpoints hammers every read endpoint at once over one
// cached build, for the race detector's benefit.
func TestConcurrentMixedEndpoints(t *testing.T) {
	srv := service.New(service.Options{CacheSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	sp := service.Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 3}
	sum, err := c.Build(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch i % 4 {
			case 0:
				_, err = c.PathBytes(ctx, sum.Key, 0, 15, uint64(i+1))
			case 1:
				_, err = c.Export(ctx, sum.Key, "dot")
			case 2:
				_, err = c.Faults(ctx, sum.Key, 4, uint64(i+1))
			case 3:
				_, err = c.Expand(ctx, service.ExpandRequest{Key: sum.Key, Increments: 1})
			}
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
