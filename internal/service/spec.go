// Package service is the serving layer over the deterministic topology
// core: a concurrent HTTP/JSON API (stdlib net/http only) answering
// topology, routing, expandability and fault queries about RFC, fat-tree
// and random-regular builds. Builds are memoised in a content-addressed
// LRU cache with singleflight deduplication, and every cached folded Clos
// keeps its up/down cover sets, which answer every path query directly;
// no per-leaf-pair state is built.
//
// Every response body is a pure function of the request parameters and
// seeds (the sole exception is the "cached" flag, which reflects server
// cache state); wall-clock measurements appear only in /metrics. The
// package is an explicitly non-deterministic (server) package in the
// rfclint configuration — see internal/lint.DefaultConfig.
package service

import (
	"fmt"
	"strings"
	"time"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// Spec identifies one topology build: the kind plus its parameters and the
// generation seed. It is the request body of POST /v1/topology; unused
// parameter fields for a kind must be zero.
type Spec struct {
	// Kind is one of "rfc", "cft", "kary", "oft", "xgft", "rrn".
	Kind string `json:"kind"`

	Radix  int `json:"radix,omitempty"`  // rfc, cft; optional port budget for xgft
	Levels int `json:"levels,omitempty"` // rfc, cft, kary, oft
	Leaves int `json:"leaves,omitempty"` // rfc (0 = MaxLeaves for radix/levels)

	Q int `json:"q,omitempty"` // oft: projective plane order
	K int `json:"k,omitempty"` // kary: arity

	M []int `json:"m,omitempty"` // xgft: down-link counts per level
	W []int `json:"w,omitempty"` // xgft: up-link counts per level

	N      int `json:"n,omitempty"`      // rrn: switches
	Degree int `json:"degree,omitempty"` // rrn: network degree
	Terms  int `json:"terms,omitempty"`  // rrn: terminals per switch

	// Seed drives the random builders (rfc, rrn). Deterministic kinds
	// canonicalise it to 0, so seed variations of a CFT share a cache entry.
	Seed uint64 `json:"seed,omitempty"`
}

// maxSwitches bounds a single build so one request cannot exhaust server
// memory; the paper's largest scenario (200K terminals) is well within it.
const maxSwitches = 1 << 21

// DefaultDenseIndexBytes was the byte budget of the dense turn table, which
// no longer exists.
//
// Deprecated: perfbench is its only caller; nothing reads it.
const DefaultDenseIndexBytes = 64 << 20

// Normalize validates sp, fills kind-specific defaults and canonicalises
// fields that do not affect the build (the seed of deterministic kinds),
// returning the spec whose Canonical string content-addresses the build.
func (sp Spec) Normalize() (Spec, error) {
	sp.Kind = strings.ToLower(strings.TrimSpace(sp.Kind))
	switch sp.Kind {
	case "rfc":
		if sp.Seed == 0 {
			sp.Seed = 1
		}
		if sp.Leaves == 0 {
			sp.Leaves = core.MaxLeaves(sp.Radix, sp.Levels)
		}
		p := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
		if err := p.Validate(); err != nil {
			return sp, err
		}
		if p.Switches() > maxSwitches {
			return sp, fmt.Errorf("service: %v exceeds the %d-switch serving limit", p, maxSwitches)
		}
	case "cft":
		sp.Seed = 0
		if sp.Radix < 4 || sp.Radix%2 != 0 {
			return sp, fmt.Errorf("service: cft radix must be even and >= 4, got %d", sp.Radix)
		}
		if sp.Levels < 2 {
			return sp, fmt.Errorf("service: cft levels must be >= 2, got %d", sp.Levels)
		}
	case "kary":
		sp.Seed = 0
		if sp.K < 2 {
			return sp, fmt.Errorf("service: kary arity must be >= 2, got %d", sp.K)
		}
		if sp.Levels < 2 {
			return sp, fmt.Errorf("service: kary levels must be >= 2, got %d", sp.Levels)
		}
	case "oft":
		sp.Seed = 0
		if sp.Q < 2 {
			return sp, fmt.Errorf("service: oft order must be >= 2, got %d", sp.Q)
		}
		if sp.Levels < 2 {
			return sp, fmt.Errorf("service: oft levels must be >= 2, got %d", sp.Levels)
		}
	case "xgft":
		sp.Seed = 0
		if len(sp.M) < 2 || len(sp.M) != len(sp.W) {
			return sp, fmt.Errorf("service: xgft needs len(m) == len(w) >= 2, got %d and %d", len(sp.M), len(sp.W))
		}
	case "rrn":
		if sp.Seed == 0 {
			sp.Seed = 1
		}
		if sp.N < 2 || sp.N > maxSwitches {
			return sp, fmt.Errorf("service: rrn switches must be in [2, %d], got %d", maxSwitches, sp.N)
		}
		if sp.Degree < 1 || sp.Terms < 0 {
			return sp, fmt.Errorf("service: rrn degree %d / terms %d invalid", sp.Degree, sp.Terms)
		}
	case "":
		return sp, fmt.Errorf("service: missing topology kind")
	default:
		return sp, fmt.Errorf("service: unknown topology kind %q (want rfc, cft, kary, oft, xgft or rrn)", sp.Kind)
	}
	return sp, nil
}

// Canonical renders the normalized spec as the canonical parameter string
// the cache keys on. Two specs describing the same build (after Normalize)
// render identically.
func (sp Spec) Canonical() string {
	switch sp.Kind {
	case "rfc":
		return fmt.Sprintf("rfc(radix=%d,levels=%d,leaves=%d,seed=%d)", sp.Radix, sp.Levels, sp.Leaves, sp.Seed)
	case "cft":
		return fmt.Sprintf("cft(radix=%d,levels=%d)", sp.Radix, sp.Levels)
	case "kary":
		return fmt.Sprintf("kary(k=%d,levels=%d)", sp.K, sp.Levels)
	case "oft":
		return fmt.Sprintf("oft(q=%d,levels=%d)", sp.Q, sp.Levels)
	case "xgft":
		return fmt.Sprintf("xgft(m=%v,w=%v,radix=%d)", sp.M, sp.W, sp.Radix)
	case "rrn":
		return fmt.Sprintf("rrn(n=%d,degree=%d,terms=%d,seed=%d)", sp.N, sp.Degree, sp.Terms, sp.Seed)
	}
	return fmt.Sprintf("unknown(%q)", sp.Kind)
}

// Key returns the content address of the normalized spec: the 64-bit FNV-1a
// hash of the canonical string, in fixed-width hex. It names the build in
// URLs (GET /v1/topology/{key}/...).
func (sp Spec) Key() string {
	return fmt.Sprintf("%016x", rng.StringCoord(sp.Canonical()))
}

// Topology is one cached build: the network and its up/down routing state
// (folded Clos kinds), or the random regular network (rrn). All fields are
// immutable after Build returns, so a cached Topology may be read
// concurrently without locking.
type Topology struct {
	Key   string
	Canon string
	Spec  Spec // normalized

	// Folded Clos kinds (rfc, cft, kary, oft, xgft).
	Clos   *topology.Clos
	Router *routing.UpDown
	// Index is Router (nil for rrn).
	//
	// Deprecated: perfbench is its only caller; use Router.
	Index routing.TurnIndex

	// rrn only.
	RRN *topology.RRN

	Routable bool
	Attempts int // rfc: generation attempts used

	// BuildNS records the wall-clock cost of the build. It feeds /metrics
	// only — response bodies stay pure functions of (params, seed).
	BuildNS int64
}

// Build constructs the topology a normalized spec describes. The network
// is a pure function of the spec — the same spec always yields an
// identical network; only the BuildNS timing field varies between runs.
func Build(sp Spec) (*Topology, error) {
	start := time.Now() //rfclint:allow handler-purity -- build duration feeds /metrics counters, never response bytes
	t := &Topology{Key: sp.Key(), Canon: sp.Canonical(), Spec: sp}
	// Every deterministic folded Clos kind builds through the streaming
	// path: the builder seals CSR level pairs bottom-up and the attached
	// RebuildStream compresses descendant sets as each pair lands, so a
	// >1M-switch build never holds wiring scratch and uncompressed routing
	// state at once. The rfc kind streams inside GenerateRoutable.
	rs := routing.NewRebuildStream()
	var err error
	switch sp.Kind {
	case "rfc":
		p := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
		t.Clos, t.Router, t.Attempts, err = core.GenerateRoutable(p, 50, rng.New(sp.Seed))
		if err != nil {
			return nil, err
		}
		t.Routable = true
	case "cft":
		t.Clos, err = topology.NewCFTStream(sp.Radix, sp.Levels, rs)
	case "kary":
		t.Clos, err = topology.NewKaryTreeStream(sp.K, sp.Levels, rs)
	case "oft":
		t.Clos, err = topology.NewOFTStream(sp.Q, sp.Levels, rs)
	case "xgft":
		t.Clos, err = topology.NewXGFTStream(sp.M, sp.W, sp.Radix, rs)
	case "rrn":
		t.RRN, err = topology.NewRRN(sp.N, sp.Degree, sp.Terms, rng.New(sp.Seed))
		if err != nil {
			return nil, err
		}
		t.Routable = t.RRN.G.IsConnected()
	default:
		return nil, fmt.Errorf("service: unknown topology kind %q", sp.Kind)
	}
	if err != nil {
		return nil, err
	}
	if t.Clos != nil {
		if t.Clos.NumSwitches() > maxSwitches {
			return nil, fmt.Errorf("service: %s exceeds the %d-switch serving limit", t.Canon, maxSwitches)
		}
		if t.Router == nil {
			t.Router = rs.Finish(t.Clos)
			t.Routable = t.Router.Routable()
		}
		t.Index = t.Router
	}
	t.BuildNS = time.Since(start).Nanoseconds() //rfclint:allow handler-purity -- metrics-only timing
	return t, nil
}

// Terminals returns the compute-node count of the build.
func (t *Topology) Terminals() int {
	if t.RRN != nil {
		return t.RRN.Terminals()
	}
	return t.Clos.Terminals()
}

// Switches returns the switch count of the build.
func (t *Topology) Switches() int {
	if t.RRN != nil {
		return t.RRN.N()
	}
	return t.Clos.NumSwitches()
}

// Wires returns the inter-switch link count of the build.
func (t *Topology) Wires() int {
	if t.RRN != nil {
		return t.RRN.Wires()
	}
	return t.Clos.Wires()
}

// MemBytes estimates the resident cost of the cached build: the topology's
// own accounting of its CSR level store plus mutation overlay
// (Clos.StoreBytes) and the router's compressed cover containers
// (UpDown.CoverBytes via SizeBytes). The cache charges this against its
// byte budget, so one huge build evicts many small ones rather than none.
// The build never grows after insertion, so the charge stays exact.
func (t *Topology) MemBytes() int64 {
	const sliceHeader = 24
	if t.RRN != nil {
		return int64(t.RRN.Wires())*8 + int64(t.RRN.N())*sliceHeader
	}
	n := int64(t.Clos.StoreBytes())
	if t.Router != nil {
		n += int64(t.Router.SizeBytes())
	}
	return n
}
