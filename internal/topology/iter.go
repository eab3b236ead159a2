package topology

import "iter"

// This file is the iteration layer of Clos: links stream level by level
// straight out of the CSR store without materialising edge slices. The
// encoders in io.go, the service export endpoint, and cmd/rfcgen all
// consume these sequences, so multi-gigabyte topologies export in constant
// memory.

// EdgeSeq yields every inter-switch link exactly once, in the canonical
// order Links returns: ascending lower-endpoint switch id, up-neighbours in
// wiring order. Encoders stream from this sequence; its order is part of
// the export formats' byte-identity contract.
func (c *Clos) EdgeSeq() iter.Seq[Link] {
	return func(yield func(Link) bool) {
		for level := 1; level < c.Levels(); level++ {
			if !c.yieldLevel(level, yield) {
				return
			}
		}
	}
}

// LinkSeq yields the links whose lower endpoint sits at the given level
// (1 <= level < l), in EdgeSeq order restricted to that level. It lets
// level-structured consumers walk one stage at a time without touching the
// rest of the network.
func (c *Clos) LinkSeq(level int) iter.Seq[Link] {
	return func(yield func(Link) bool) {
		c.yieldLevel(level, yield)
	}
}

// yieldLevel streams the up-links of one level in switch-id order,
// overlay-aware: upAt returns a switch's overlay row when it has one and
// its sealed CSR row otherwise. It reports whether iteration ran to
// completion.
func (c *Clos) yieldLevel(level int, yield func(Link) bool) bool {
	lo := c.offset[level-1]
	for i := 0; i < c.levelSize[level-1]; i++ {
		s := lo + int32(i)
		for _, b := range c.upAt(level, i) {
			if !yield(Link{s, b}) {
				return false
			}
		}
	}
	return true
}
