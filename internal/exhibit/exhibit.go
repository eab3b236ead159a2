// Package exhibit is the registry of the paper's exhibits: one descriptor
// per figure/table/extension, each knowing how to produce its Report from a
// shared parameter set. The registry is the single source of truth for the
// exhibit ids, their "all" execution order, the per-exhibit defaults the CLI
// help prints, and the shard-aware entry point rfcpaper and rfcmerge share.
package exhibit

import (
	"fmt"
	"sort"
	"strings"

	"rfclos/internal/analysis"
	"rfclos/internal/engine"
)

// Kind classifies an exhibit by how it computes: closed-form or sampled
// arithmetic (analytic), cycle-accurate simulation sweeps (sim), or
// fault-injection experiments (resiliency).
type Kind string

const (
	Analytic   Kind = "analytic"
	Sim        Kind = "sim"
	Resiliency Kind = "resiliency"
	// Flow marks exhibits computed by the flow-level max-min-fair backend
	// (internal/flow): exact per-flow rates from water-filling, no cycle
	// simulation, reaching scales the cycle engine cannot.
	Flow Kind = "flow"
)

// Result is the structured report an exhibit produces.
type Result = analysis.Report

// Params carries every run-time knob rfcpaper exposes; each exhibit reads
// the subset it understands and applies its own defaults for the rest, so
// one Params value can drive the whole registry ("-exhibit all").
type Params struct {
	Scale analysis.Scale // small | paper (sim exhibits)
	Seed  uint64
	// Trials overrides the trials/repetitions default of thm42, fig11 and
	// table3 when > 0.
	Trials int
	// Cycles overrides MeasureCycles when > 0 (warmup becomes Cycles/4).
	Cycles int
	// Reps is the per-point repetition count for simulation sweeps (0 =
	// exhibit default).
	Reps int
	// Workers sizes the worker pools; 0 means one per CPU. Reports are
	// byte-identical for any value.
	Workers int
	// Loads and Patterns override the sweep grids of the sim exhibits.
	Loads    []float64
	Patterns []string
	// InfiniteSink models infinite reception bandwidth (fig8-10 only, as in
	// the pre-registry CLI).
	InfiniteSink bool
	// Backend selects the throughput engine of the scenario sweeps
	// (fig8-10): "" or "cycle" runs the cycle-accurate simulator, "flow"
	// the flow-level max-min-fair solver. Flow-kind exhibits always use the
	// flow backend; other exhibits ignore the knob.
	Backend string
	// Progress, when non-nil, receives one line per completed job of every
	// engine-backed exhibit (see analysis.Run).
	Progress func(string)
	// Shard restricts the job grids to the slice this process owns; the
	// zero value runs everything (see engine.Shard).
	Shard engine.Shard
}

// Exhibit describes one registered exhibit.
type Exhibit struct {
	// ID is the CLI name ("fig5", "table3", ...).
	ID string
	// Title is a one-line description of what the exhibit reproduces.
	Title string
	Kind  Kind
	// Defaults summarises the parameter defaults this exhibit applies when
	// the corresponding Params fields are zero.
	Defaults string
	// Run produces the exhibit's report for the given parameters.
	Run func(Params) (*Result, error)
}

var (
	ordered []*Exhibit
	byID    = map[string]*Exhibit{}
)

// register adds an exhibit; registration order defines the "all" execution
// order. Duplicate ids are a programming error.
func register(e Exhibit) {
	if _, dup := byID[e.ID]; dup {
		panic("exhibit: duplicate id " + e.ID)
	}
	if e.ID == "all" {
		panic(`exhibit: "all" is reserved`)
	}
	c := e
	inner := c.Run
	// Stamp provenance on every report so the JSON form and rfcmerge can
	// group partials without side channels.
	c.Run = func(p Params) (*Result, error) {
		rep, err := inner(p)
		if rep != nil {
			rep.Exhibit = c.ID
			rep.Shard = p.Shard
		}
		return rep, err
	}
	ordered = append(ordered, &c)
	byID[c.ID] = &c
}

// All returns the registered exhibits in registration ("all") order.
func All() []*Exhibit {
	return append([]*Exhibit(nil), ordered...)
}

// IDs returns the exhibit ids in registration order.
func IDs() []string {
	ids := make([]string, len(ordered))
	for i, e := range ordered {
		ids[i] = e.ID
	}
	return ids
}

// Lookup finds an exhibit by id.
func Lookup(id string) (*Exhibit, bool) {
	e, ok := byID[id]
	return e, ok
}

// Usage renders the -exhibit flag's value set, derived from the registry.
func Usage() string {
	return strings.Join(append(IDs(), "all"), "|")
}

// Help renders one line per exhibit (id, kind, title, defaults) for the
// CLI's extended help, in registration order with aligned columns.
func Help() string {
	w := 0
	for _, e := range ordered {
		if len(e.ID) > w {
			w = len(e.ID)
		}
	}
	var b strings.Builder
	for _, e := range ordered {
		fmt.Fprintf(&b, "  %-*s  %-10s  %s", w, e.ID, e.Kind, e.Title)
		if e.Defaults != "" {
			fmt.Fprintf(&b, " (defaults: %s)", e.Defaults)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Resolve maps an -exhibit argument to the exhibits to run: a single id, or
// every registered exhibit for "all". Unknown ids list the valid ones.
func Resolve(arg string) ([]*Exhibit, error) {
	if arg == "all" {
		return All(), nil
	}
	if e, ok := Lookup(arg); ok {
		return []*Exhibit{e}, nil
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("unknown exhibit %q (known: %s, all)", arg, strings.Join(known, ", "))
}
