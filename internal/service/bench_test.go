package service_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"rfclos/internal/service"
	"rfclos/internal/service/client"
)

// BenchmarkCachedPath measures GET /v1/path throughput against a warm
// cache through the full HTTP stack (in-process server + Go client), the
// serving-layer datapoint scripts/bench.sh records. Reported in req/sec.
func BenchmarkCachedPath(b *testing.B) {
	srv := service.New(service.Options{CacheSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	const n1 = 48
	sum, err := c.Build(ctx, service.Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: n1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PathBytes(ctx, sum.Key, i%n1, (i*7+3)%n1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}
