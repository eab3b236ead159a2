package flow

import (
	"math"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// stubNet is a Network with hand-wired paths, for exact water-filling
// checks.
type stubNet struct {
	t, links int
	paths    map[[2]int32][]int32
}

func (s *stubNet) Terminals() int { return s.t }
func (s *stubNet) NumLinks() int  { return s.links }
func (s *stubNet) Resolve(src, dst int32, _ *rng.Rand, buf []int32) ([]int32, bool) {
	p, ok := s.paths[[2]int32{src, dst}]
	if !ok {
		return nil, false
	}
	return append(buf, p...), true
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWaterfillSharedLink(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 1}, {Src: 2, Dst: 3, Rate: 1}}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rates[0], 0.5) || !near(res.Rates[1], 0.5) {
		t.Fatalf("two flows sharing a link: got rates %v, want 0.5 each", res.Rates)
	}
	if res.SatLinks != 1 {
		t.Errorf("saturated links = %d, want 1 (the shared link)", res.SatLinks)
	}
}

func TestWaterfillDemandCap(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 0.3}, {Src: 2, Dst: 3, Rate: 1}}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rates[0], 0.3) || !near(res.Rates[1], 0.7) {
		t.Fatalf("demand-capped flow should release bandwidth: got %v, want [0.3 0.7]", res.Rates)
	}
}

func TestWaterfillAsymmetricBottlenecks(t *testing.T) {
	// The textbook example: A uses link 0; B uses links 0 and 1; C and D use
	// link 1. Max-min gives B=C=D=1/3 (link 1) and A=2/3 (link 0's rest).
	net := &stubNet{t: 8, links: 2, paths: map[[2]int32][]int32{
		{0, 1}: {0},
		{2, 3}: {0, 1},
		{4, 5}: {1},
		{6, 7}: {1},
	}}
	m := []traffic.Demand{
		{Src: 0, Dst: 1, Rate: 1}, {Src: 2, Dst: 3, Rate: 1},
		{Src: 4, Dst: 5, Rate: 1}, {Src: 6, Dst: 7, Rate: 1},
	}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2. / 3, 1. / 3, 1. / 3, 1. / 3}
	for i, w := range want {
		if !near(res.Rates[i], w) {
			t.Fatalf("asymmetric bottlenecks: got %v, want %v", res.Rates, want)
		}
	}
}

func TestIncastConvergesToFairShare(t *testing.T) {
	c, err := topology.NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClosNetwork(routing.New(c))
	// All 7 other terminals blast terminal 0: the ejection link forces 1/7.
	var m []traffic.Demand
	for s := int32(1); s < 8; s++ {
		m = append(m, traffic.Demand{Src: s, Dst: 0, Rate: 1})
	}
	res, err := Solve(net, m, Options{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rates {
		if !near(r, 1.0/7) {
			t.Fatalf("incast flow %d rate %.6f, want 1/7", i, r)
		}
	}
	if !near(res.Jain, 1) {
		t.Errorf("incast Jain index %.6f, want 1 (perfectly fair)", res.Jain)
	}
}

func TestLowLoadMeetsDemand(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClosNetwork(routing.New(c))
	m := traffic.ScaleMatrix(traffic.UniformMatrix(c.Terminals(), 4, rng.New(5)), 0.2)
	res, err := Solve(net, m, Options{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rates {
		if !near(r, m[i].Rate) {
			t.Fatalf("under light uniform load every flow should meet demand: flow %d rate %.6f demand %.6f",
				i, r, m[i].Rate)
		}
	}
	if !near(res.Accepted, 0.2) {
		t.Errorf("accepted %.6f, want 0.2 (all demand delivered)", res.Accepted)
	}
}

func TestWorkerInvariance(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClosNetwork(routing.New(c))
	m, err := traffic.NewMatrix("storm", c.Terminals(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Solve(net, m, Options{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resN, err := Solve(net, m, Options{Seed: 42, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Rates {
		if res1.Rates[i] != resN.Rates[i] {
			t.Fatalf("flow %d rate differs across worker counts: %v vs %v", i, res1.Rates[i], resN.Rates[i])
		}
	}
	if res1.Accepted != resN.Accepted || res1.Rounds != resN.Rounds {
		t.Fatalf("summary differs across worker counts: %+v vs %+v", res1, resN)
	}
}

// verifyMaxMin checks the max-min certificate: (feasibility) no link
// carries more than its capacity, and (maximality) every flow either meets
// its demand or crosses a saturated link on which its rate is maximal.
// Paths are re-derived from the same coordinate streams Solve used.
func verifyMaxMin(t *testing.T, n Network, m []traffic.Demand, opts Options, res *Result) {
	t.Helper()
	const tol = 1e-6
	used := make([]float64, n.NumLinks())
	maxOn := make([]float64, n.NumLinks())
	paths := make([][]int32, len(m))
	for i, d := range m {
		if d.Rate <= 0 {
			continue
		}
		r := rng.At(opts.Seed, pathCoord, uint64(i))
		p, ok := n.Resolve(d.Src, d.Dst, r, nil)
		if !ok {
			if res.Rates[i] != 0 {
				t.Fatalf("unroutable flow %d has rate %v", i, res.Rates[i])
			}
			continue
		}
		paths[i] = p
		for _, l := range p {
			used[l] += res.Rates[i]
			if res.Rates[i] > maxOn[l] {
				maxOn[l] = res.Rates[i]
			}
		}
	}
	for l, u := range used {
		if u > 1+tol {
			t.Fatalf("feasibility violated: link %d carries %.9f > 1", l, u)
		}
	}
	for i, p := range paths {
		if p == nil {
			continue
		}
		if res.Rates[i] >= m[i].Rate-tol {
			continue // demand-satisfied
		}
		ok := false
		for _, l := range p {
			if used[l] >= 1-tol && res.Rates[i] >= maxOn[l]-tol {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("maximality violated: flow %d rate %.9f below demand %.9f with no saturated bottleneck it is maximal on",
				i, res.Rates[i], m[i].Rate)
		}
	}
}

func TestMaxMinPropertyAcrossNetworksAndMatrices(t *testing.T) {
	var nets []struct {
		name string
		n    Network
	}
	cft, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, struct {
		name string
		n    Network
	}{"cft8x3", NewClosNetwork(routing.New(cft))})
	rc, _, _, err := core.GenerateRoutable(core.Params{Radix: 8, Levels: 3, Leaves: 16}, 20, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, struct {
		name string
		n    Network
	}{"rfc8x3x16", NewClosNetwork(routing.New(rc))})
	rrn, err := topology.NewRRN(32, 4, 2, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewRRN(rrn, 1)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, struct {
		name string
		n    Network
	}{"rrn32x4x2", rn})

	for _, nt := range nets {
		for _, name := range traffic.MatrixNames() {
			for _, load := range []float64{0.4, 1.0} {
				m, err := traffic.NewMatrix(name, nt.n.Terminals(), rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				m = traffic.ScaleMatrix(m, load)
				opts := Options{Seed: 17, Workers: 1}
				res, err := Solve(nt.n, m, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", nt.name, name, err)
				}
				verifyMaxMin(t, nt.n, m, opts, res)
			}
		}
	}
}

func TestClosResolveLinkModel(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClosNetwork(routing.New(c))
	tcount := int32(c.Terminals())
	r := rng.New(1)
	p, ok := net.Resolve(0, tcount-1, r, nil)
	if !ok {
		t.Fatal("CFT pair unroutable")
	}
	if p[0] != 0 || p[len(p)-1] != tcount+tcount-1 {
		t.Fatalf("path must start at injection 0 and end at ejection of dst: %v", p)
	}
	// CFT(8,3) cross-network path: injection + 2 up + 2 down + ejection.
	if len(p) != 6 {
		t.Fatalf("distant leaf pair path length %d links, want 6", len(p))
	}
	for _, l := range p {
		if int(l) >= net.NumLinks() || l < 0 {
			t.Fatalf("link id %d outside [0, %d)", l, net.NumLinks())
		}
	}
	// Same-leaf pair: terminal links only.
	p, ok = net.Resolve(0, 1, r, nil)
	if !ok || len(p) != 2 {
		t.Fatalf("same-leaf pair should use only terminal links, got %v", p)
	}
}
