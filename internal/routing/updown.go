package routing

import (
	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// UpDown is the up/down ECMP routing state of a folded Clos network. It
// implements exactly the paper's "shortest injection, up/down random
// request" scheme: a packet for leaf d first computes the minimal number of
// up hops r such that an ancestor of d is reachable (shortest up/down path,
// length 2r), then at each up hop picks uniformly among parents that still
// lead to such an ancestor, turns, and descends picking uniformly among
// children below which d lies. Routes consist of up hops followed by down
// hops only, so the channel dependency graph is acyclic and the routing is
// deadlock-free without virtual-channel ordering (§4.1).
//
// The state is two families of leaf sets:
//
//	desc(s)   = leaves below switch s (cover_0)
//	cover_r(s) = ∪_{p parent of s} cover_{r-1}(p)
//
// cover_r(s) is the set of leaves reachable from s by exactly r up hops
// followed by downs. All sets are rebuilt from the (possibly faulted)
// topology by Rebuild. Sets are stored as compressed LeafSet containers
// (leafset.go) rather than plain N1-bit bitsets, so the state's memory is
// proportional to the compressed size of the covers — orders of magnitude
// below N1²/8 on structured or routable networks — which is what lets the
// serving layer hold paper-scale (200K+ leaf) fabrics in memory.
type UpDown struct {
	c *topology.Clos
	// cover[r][s]; cover[0] is desc. cover[r][s] is nil for switches whose
	// level exceeds l-r (they cannot take r up hops).
	cover [][]LeafSet
	n1    int
}

// New builds routing state for c. Call Rebuild after mutating the topology
// (e.g. removing links).
func New(c *topology.Clos) *UpDown {
	u := &UpDown{c: c}
	u.Rebuild()
	return u
}

// Clos returns the topology this router routes on.
func (u *UpDown) Clos() *topology.Clos { return u.c }

// CoverBytes returns the memory footprint of the routing state's descendant
// and cover containers (the dominant cost; container payloads, container
// struct headers and the cover-table interface slots included, the
// underlying topology excluded). It is the single source of truth for
// cover-memory accounting: SizeBytes (the cache-budget charge) and
// TableStats.CoverBytes (the stats report) both delegate here.
func (u *UpDown) CoverBytes() int {
	n := 0
	for _, level := range u.cover {
		n += 16 * len(level) // interface slots
		for _, s := range level {
			if s != nil {
				n += s.SizeBytes()
			}
		}
	}
	return n
}

// SizeBytes returns the memory the serving layer charges against its cache
// budget for this router; it equals CoverBytes.
func (u *UpDown) SizeBytes() int { return u.CoverBytes() }

// CoverRepr summarises which containers the cover sets landed in, as
// "repr:count" pairs in a fixed order with zero counts omitted (e.g.
// "run:520 sparse:64 full:8"). Diagnostic only; surfaced by the service's
// topology summaries and cmd/rfcgen.
func (u *UpDown) CoverRepr() string {
	var counts [len(coverReprOrder)]int
	for _, level := range u.cover {
		for _, s := range level {
			if s == nil {
				continue
			}
			if i := reprIndex(s.Repr()); i >= 0 {
				counts[i]++
			}
		}
	}
	return formatCoverRepr(counts)
}

// Rebuild recomputes every descendant and cover set from the topology,
// level by level: sets are produced one switch at a time through a single
// reusable scratch bitset and compressed immediately, so peak transient
// memory is one N1-bit buffer plus the compressed result — never the old
// O(N1²/8) of materialising every set as a plain bitset. Interval-shaped
// inputs union as sorted run lists without touching the scratch at all,
// and when the topology declares contiguous descendant ranges
// (Clos.LeafRange, set by the XGFT family) desc sets are built directly
// from the declared interval.
func (u *UpDown) Rebuild() {
	c := u.c
	u.n1 = c.LevelSize(1)
	bld := newLeafSetBuilder(u.n1)
	desc := make([]LeafSet, c.NumSwitches())
	for i := 0; i < u.n1; i++ {
		desc[c.SwitchID(1, i)] = newSingletonLeafSet(u.n1, i)
	}
	for lev := 2; lev <= c.Levels(); lev++ {
		for i := 0; i < c.LevelSize(lev); i++ {
			s := c.SwitchID(lev, i)
			if lo, hi, ok := c.LeafRange(s); ok {
				desc[s] = leafSetFromRange(u.n1, lo, hi)
				continue
			}
			bld.reset()
			for _, ch := range c.Down(s) {
				bld.add(desc[ch])
			}
			desc[s] = bld.finish()
		}
	}
	u.cover = make([][]LeafSet, c.Levels())
	u.cover[0] = desc
	u.finishCovers(bld)
}

// finishCovers builds cover_r for r = 1..l-1 over the completed up-wiring,
// assuming u.cover[0] (desc) is already in place; cover_r(s) exists only
// for switches at levels 1..l-r.
func (u *UpDown) finishCovers(bld *leafSetBuilder) {
	c := u.c
	l := c.Levels()
	total := c.NumSwitches()
	for r := 1; r < l; r++ {
		cov := make([]LeafSet, total)
		prev := u.cover[r-1]
		for lev := 1; lev <= l-r; lev++ {
			for i := 0; i < c.LevelSize(lev); i++ {
				s := c.SwitchID(lev, i)
				bld.reset()
				for _, p := range c.Up(s) {
					if prev[p] != nil {
						bld.add(prev[p])
					}
				}
				cov[s] = bld.finish()
			}
		}
		u.cover[r] = cov
	}
}

// MinTurn returns the minimal number of up hops r >= 0 such that an up/down
// path of length 2r exists from leaf index src to leaf index dst, or -1 when
// no up/down path exists (possible only under faults or sub-threshold
// radices). src == dst returns 0.
func (u *UpDown) MinTurn(src, dst int) int {
	if src == dst {
		return 0
	}
	s := u.c.SwitchID(1, src)
	for r := 1; r < len(u.cover); r++ {
		if cov := u.cover[r][s]; cov != nil && cov.Get(dst) {
			return r
		}
	}
	return -1
}

// scan is the one next-hop scan behind the four port samplers. It walks
// nbrs in port order; a neighbour qualifies when its set in sets (the rem-1
// covers going up, the descendant sets going down) holds dst. With r
// non-nil it reservoir-samples the qualifying ports in one pass, drawing
// r.Intn(k) at the k-th for k >= 2; otherwise it stops at the want-th
// (want < 0 scans them all, choosing none). It returns the qualifying count
// seen and the chosen port, or -1 when none was chosen. The loop takes no
// closure or interface-typed selector: it is the cycle engine's hot path.
func scan(nbrs []int32, sets []LeafSet, dst int, r *rng.Rand, want int) (count, port int) {
	port = -1
	for i, p := range nbrs {
		if cov := sets[p]; cov != nil && cov.Get(dst) {
			if r == nil {
				if count == want {
					return count + 1, i
				}
			} else if count == 0 || r.Intn(count+1) == 0 {
				port = i
			}
			count++
		}
	}
	return count, port
}

// hashPick is the hash selector: the (key mod count)-th qualifying port.
func hashPick(nbrs []int32, sets []LeafSet, dst int, key uint32) int {
	count, _ := scan(nbrs, sets, dst, nil, -1)
	if count == 0 {
		return -1
	}
	_, port := scan(nbrs, sets, dst, nil, int(key%uint32(count)))
	return port
}

// NextUpPort picks uniformly at random the index into Clos.Up(s) of a
// parent that still reaches leaf dst within rem-1 further up hops (rem >= 1
// is the remaining up-hop budget), or -1 when none does, which cannot
// happen when rem was derived from MinTurn on an unchanged topology.
func (u *UpDown) NextUpPort(s int32, rem int, dst int, r *rng.Rand) int {
	_, port := scan(u.c.Up(s), u.cover[rem-1], dst, r, -1)
	return port
}

// NextDownPort picks uniformly at random the index into Clos.Down(s) of a
// child whose descendants include leaf dst, or -1 when none does.
func (u *UpDown) NextDownPort(s int32, dst int, r *rng.Rand) int {
	_, port := scan(u.c.Down(s), u.cover[0], dst, r, -1)
	return port
}

// NextUpPortHash is the deterministic counterpart of NextUpPort: among the
// qualifying parents it picks the one indexed by key modulo the candidate
// count. Real fat-tree deployments often use such D-mod-K style hashing of
// the flow identifier instead of per-packet randomisation; the simulator
// exposes both policies.
func (u *UpDown) NextUpPortHash(s int32, rem int, dst int, key uint32) int {
	return hashPick(u.c.Up(s), u.cover[rem-1], dst, key)
}

// NextDownPortHash deterministically picks among the children leading to
// dst, keyed like NextUpPortHash.
func (u *UpDown) NextDownPortHash(s int32, dst int, key uint32) int {
	return hashPick(u.c.Down(s), u.cover[0], dst, key)
}

// Descendants returns the descendant leaf set of switch s (immutable).
func (u *UpDown) Descendants(s int32) LeafSet { return u.cover[0][s] }

// Routable reports whether every ordered pair of distinct leaves has an
// up/down path, i.e. whether the network still has the common-ancestor
// property of Theorem 4.2.
func (u *UpDown) Routable() bool {
	return u.UnroutablePairs(1) == 0
}

// UnroutablePairs counts unordered leaf pairs with no up/down path, giving
// up early once limit pairs are found (limit <= 0 means count all). Leaves
// with any full cover set skip the per-pair scan entirely, so on healthy
// routable networks — where the top-turn cover is full for every leaf —
// this is O(N1) regardless of scale.
func (u *UpDown) UnroutablePairs(limit int) int {
	acc := NewBitset(u.n1)
	found := 0
	for i := 0; i < u.n1; i++ {
		s := u.c.SwitchID(1, i)
		fullCover := false
		for r := 1; r < len(u.cover); r++ {
			if cov := u.cover[r][s]; cov != nil && cov.Full() {
				fullCover = true
				break
			}
		}
		if fullCover {
			continue
		}
		acc.Clear()
		for r := 1; r < len(u.cover); r++ {
			if cov := u.cover[r][s]; cov != nil {
				cov.OrInto(acc)
			}
		}
		acc.Set(i)
		if acc.Full(u.n1) {
			continue
		}
		// Count missing leaves with index > i so each pair counts once.
		for j := i + 1; j < u.n1; j++ {
			if !acc.Get(j) {
				found++
				if limit > 0 && found >= limit {
					return found
				}
			}
		}
	}
	return found
}

// Path materialises one random shortest up/down path between leaf indices
// src and dst as a switch-id sequence, or nil when unroutable. Used by tests
// and the CLI; the simulator routes hop by hop instead.
func (u *UpDown) Path(src, dst int, r *rng.Rand) []int32 {
	return u.PathAt(src, dst, u.MinTurn(src, dst), r)
}

// PathAt is Path with the turn level supplied by the caller, for callers
// that already hold it. turn must be MinTurn(src, dst); a negative turn
// returns nil.
func (u *UpDown) PathAt(src, dst, turn int, r *rng.Rand) []int32 {
	if r == nil {
		r = rng.New(1)
	}
	if turn < 0 {
		return nil
	}
	cur := u.c.SwitchID(1, src)
	path := []int32{cur}
	for rem := turn; rem > 0; rem-- {
		p := u.NextUpPort(cur, rem, dst, r)
		if p < 0 {
			return nil
		}
		cur = u.c.Up(cur)[p]
		path = append(path, cur)
	}
	for u.c.LevelOf(cur) > 1 {
		p := u.NextDownPort(cur, dst, r)
		if p < 0 {
			return nil
		}
		cur = u.c.Down(cur)[p]
		path = append(path, cur)
	}
	return path
}

// AverageShortestUpDown computes the mean up/down shortest path length (in
// switch hops, 2*MinTurn) over sampled leaf pairs. Pairs without a path are
// skipped; the second return value is the routable fraction of sampled
// pairs.
func (u *UpDown) AverageShortestUpDown(samples int, r *rng.Rand) (mean float64, routable float64) {
	if r == nil {
		r = rng.New(1)
	}
	total, ok, attempted := 0.0, 0, 0
	for i := 0; i < samples; i++ {
		a, b := r.Intn(u.n1), r.Intn(u.n1)
		if a == b {
			continue
		}
		attempted++
		t := u.MinTurn(a, b)
		if t < 0 {
			continue
		}
		total += float64(2 * t)
		ok++
	}
	if ok == 0 {
		return 0, 0
	}
	return total / float64(ok), float64(ok) / float64(attempted)
}

// TurnIndex answers MinTurn and reports its memory; *UpDown satisfies it.
//
// Deprecated: perfbench is its only caller; every other caller asks
// UpDown.MinTurn directly.
type TurnIndex interface {
	MinTurn(src, dst int) int
	SizeBytes() int
}

// NewTurnIndex returns u; the byte-budget argument is ignored.
//
// Deprecated: perfbench is its only caller; every other caller asks
// UpDown.MinTurn directly.
func NewTurnIndex(u *UpDown, _ int) TurnIndex { return u }
