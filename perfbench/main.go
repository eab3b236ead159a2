// Command perfbench is the repository benchmark. It drives three workloads
// through the public entry points of the rfclos modules and prints one JSON
// result line:
//
//	serve  rfcd in-process behind a loopback listener, a closed loop of two
//	       clients mixing GET /v1/path, POST /v1/paths and cold builds
//	flow   a fixed sequence of POST /v1/throughput solves
//	sim    the fig8 exhibit on the cycle backend at a reduced grid
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) repeats the workload and then times each layer from outside,
// reporting the per-layer metrics. Metric names and units come from
// BENCHMARK.json at the repository root. See README.md.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// run carries one invocation's inputs to a workload.
type run struct {
	seed   uint64
	window time.Duration // how long the timed loop measures
	traced bool
}

// outcome is what a workload measured. e2e holds the end-to-end metrics,
// layer the per-layer ones (filled only by a traced run).
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// verify marks an operation already counted in attempted as failed unless
// ok holds.
func (o *outcome) verify(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

var workloads = map[string]func(run) (*outcome, error){
	"serve": serveWorkload,
	"flow":  flowWorkload,
	"sim":   simWorkload,
}

// metricDecl is one metric entry of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaration is the part of BENCHMARK.json the benchmark reads.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: serve, flow or sim")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// declarationFile names the metrics and their units; the benchmark runs
// from the repository root.
const declarationFile = "BENCHMARK.json"

func mainErr(workload string, seed uint64, seconds float64, trace int) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want serve, flow or sim)", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0|1")
	}
	raw, err := os.ReadFile(declarationFile)
	if err != nil {
		return fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var decl declaration
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parsing %s: %w", declarationFile, err)
	}
	fp, err := json.Marshal(map[string]any{"fingerprint": machineFingerprint()})
	if err != nil {
		return err
	}
	fmt.Println(string(fp))

	out, err := w(run{seed: seed, window: time.Duration(seconds * float64(time.Second)), traced: trace == 1})
	if err != nil {
		return err
	}
	declared, measured := decl.EndToEnd, out.e2e
	if trace == 1 {
		declared, measured = decl.PerLayer, out.layer
	}
	metrics, err := render(declared, measured, trace == 1)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", workload)
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// render pairs measured values with their declared units. Every measured
// name must be declared. A declared end-to-end metric must be measured; a
// per-layer metric the workload never touched reads 0, the work it did in
// that layer.
func render(declared []metricDecl, measured map[string]float64, zeroFill bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, d := range declared {
		v, ok := measured[d.Name]
		if !ok && !zeroFill {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var unknown []string
	for name := range measured {
		if _, ok := out[name]; !ok {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics missing from the declaration: %v", unknown)
	}
	return out, nil
}

// heapMB returns the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}
