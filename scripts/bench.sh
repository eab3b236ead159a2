#!/bin/sh
# Benchmarks the experiment machinery and appends datapoints to
# BENCH_engine.json at the repo root:
#   - parallel experiment engine: the Figure 8 sweep once with -workers 1
#     and once with -workers <nproc>, checking the two reports are
#     byte-identical (times, speedup, core count), and
#   - unified cycle engine: simcore packet throughput in simulated
#     cycles/sec (BenchmarkEngineCycles), and
#   - shard merging: the same Figure 8 sweep split -shard 0/2 + 1/2,
#     merged with rfcmerge, checked byte-identical to the unsharded
#     report, with the merge throughput (MB/s of partial JSON) recorded, and
#   - determinism lint gate: wall time of a full-tree rfclint run (the
#     scripts/lint.sh CI step's dominant cost), from a prebuilt binary so
#     compile time is excluded, and
#   - serving layer: cached GET /v1/path throughput in req/sec through the
#     full HTTP stack (BenchmarkCachedPath: in-process rfcd + Go client), and
#   - compressed cover sets: UpDown.Rebuild wall time plus compressed vs
#     plain-bitset cover bytes on a 4096-leaf XGFT (BenchmarkCoverBuild), and
#   - CSR level store: XGFT wiring time through the level emitter and the
#     sealed store's bytes next to the pre-refactor [][]int32 arena cost
#     model, at 64K and 512K leaves (BenchmarkTopologyBuild), and
#   - streaming exports: sealed CSR-direct link streaming rate at 64K
#     leaves (BenchmarkExportEdges, links/s), and
#   - flow-level solver: max-min-fair solve throughput on a 64K-leaf
#     uniform matrix, 262,144 flows (BenchmarkFlowSolve, flows/s).
#
# Usage: scripts/bench.sh [reps] [cycles]
set -eu
cd "$(dirname "$0")/.."

reps=${1:-2}
cycles=${2:-2000}
cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

bin=$(mktemp -d)/rfcpaper
go build -o "$bin" ./cmd/rfcpaper

now() { date +%s.%N; }

run_sweep() { # $1 = workers, $2 = output file
	"$bin" -exhibit fig8 -scale small -reps "$reps" -cycles "$cycles" \
		-workers "$1" -quiet >"$2"
}

out1=$(mktemp) outN=$(mktemp)
t0=$(now); run_sweep 1 "$out1"; t1=$(now)
serial=$(awk "BEGIN{printf \"%.3f\", $t1 - $t0}")
t0=$(now); run_sweep "$cores" "$outN"; t1=$(now)
parallel=$(awk "BEGIN{printf \"%.3f\", $t1 - $t0}")

if ! cmp -s "$out1" "$outN"; then
	echo "bench.sh: FATAL: workers=1 and workers=$cores reports differ" >&2
	exit 1
fi

# Shard-merge throughput: split the same sweep 2 ways, merge the partial
# JSON reports, and require the merged text to match the unsharded run.
merge_bin=$(dirname "$bin")/rfcmerge
go build -o "$merge_bin" ./cmd/rfcmerge
parts=$(mktemp -d)
"$bin" -exhibit fig8 -scale small -reps "$reps" -cycles "$cycles" \
	-shard 0/2 -out "$parts" -quiet
"$bin" -exhibit fig8 -scale small -reps "$reps" -cycles "$cycles" \
	-shard 1/2 -out "$parts" -quiet
part_bytes=$(cat "$parts"/fig8.shard*.json | wc -c)
merged=$(mktemp)
t0=$(now)
"$merge_bin" -quiet "$parts"/fig8.shard0-of-2.json "$parts"/fig8.shard1-of-2.json >"$merged"
t1=$(now)
merge_s=$(awk "BEGIN{printf \"%.4f\", $t1 - $t0}")
merge_mbps=$(awk "BEGIN{printf \"%.1f\", $part_bytes / 1e6 / $merge_s}")
if ! cmp -s "$out1" "$merged"; then
	echo "bench.sh: FATAL: merged sharded report differs from unsharded run" >&2
	exit 1
fi
rm -rf "$parts" "$merged" "$out1" "$outN"

speedup=$(awk "BEGIN{printf \"%.2f\", $serial / $parallel}")
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# Determinism lint: a clean full-tree run is required (any finding fails
# the bench, matching the CI gate) and its wall time recorded.
lint_bin=$(dirname "$bin")/rfclint
go build -o "$lint_bin" ./cmd/rfclint
t0=$(now)
lint_out=$("$lint_bin" ./...)
t1=$(now)
lint_s=$(awk "BEGIN{printf \"%.3f\", $t1 - $t0}")
lint_pkgs=$(printf '%s\n' "$lint_out" | awk '/packages clean/ { print $2 }')
: "${lint_pkgs:?bench.sh: rfclint produced no all-clear summary}"

# Simcore packet throughput: simulated cycles per wall-clock second.
cps=$(go test -run '^$' -bench BenchmarkEngineCycles -benchtime 2s ./internal/simcore/ |
	awk '/cycles\/sec/ { print $(NF-1) }')
: "${cps:?bench.sh: BenchmarkEngineCycles produced no cycles/sec metric}"

# Serving layer: cached path-query throughput over HTTP (warm cache, so
# this measures cover-set routing + JSON + HTTP, not topology builds).
rps=$(go test -run '^$' -bench BenchmarkCachedPath -benchtime 2s ./internal/service/ |
	awk '/req\/sec/ { print $(NF-1) }')
: "${rps:?bench.sh: BenchmarkCachedPath produced no req/sec metric}"

# Compressed cover sets (4096-leaf XGFT): streaming Rebuild time and
# the hybrid-container footprint next to the plain one-bitset-per-set cost.
cov_out=$(go test -run '^$' -bench BenchmarkCoverBuild -benchtime 1s ./internal/routing/)
cov_build_ns=$(printf '%s\n' "$cov_out" | awk '$1 ~ /CoverBuild/ { print $3 }')
cov_bytes=$(printf '%s\n' "$cov_out" | awk '$1 ~ /CoverBuild/ { for (i = 1; i < NF; i++) if ($(i+1) == "cover-bytes") print $i }')
cov_plain_bytes=$(printf '%s\n' "$cov_out" | awk '$1 ~ /CoverBuild/ { for (i = 1; i < NF; i++) if ($(i+1) == "plain-bytes") print $i }')
: "${cov_build_ns:?bench.sh: BenchmarkCoverBuild produced no ns/op}"
: "${cov_bytes:?bench.sh: BenchmarkCoverBuild produced no cover-bytes metric}"
: "${cov_plain_bytes:?bench.sh: BenchmarkCoverBuild produced no plain-bytes metric}"

# CSR level store: wiring time and sealed-store footprint vs the old
# [][]int32 arena cost model, at the scale_test sizes (64K / 512K leaves).
topo_out=$(go test -run '^$' -bench BenchmarkTopologyBuild -benchtime 1x ./internal/topology/)
topo_metric() { # $1 = leaves, $2 = metric unit (or "ns/op")
	printf '%s\n' "$topo_out" | awk -v pat="TopologyBuild/leaves=$1" -v unit="$2" '
		$1 ~ pat {
			if (unit == "ns/op") { print $3; exit }
			for (i = 1; i < NF; i++) if ($(i+1) == unit) { print $i; exit }
		}'
}
topo64_ns=$(topo_metric 65536 ns/op)
topo64_csr=$(topo_metric 65536 csr-bytes)
topo64_arena=$(topo_metric 65536 arena-bytes)
topo512_ns=$(topo_metric 524288 ns/op)
topo512_csr=$(topo_metric 524288 csr-bytes)
topo512_arena=$(topo_metric 524288 arena-bytes)
: "${topo64_ns:?bench.sh: BenchmarkTopologyBuild produced no 64K ns/op}"
: "${topo64_csr:?bench.sh: BenchmarkTopologyBuild produced no 64K csr-bytes metric}"
: "${topo64_arena:?bench.sh: BenchmarkTopologyBuild produced no 64K arena-bytes metric}"
: "${topo512_ns:?bench.sh: BenchmarkTopologyBuild produced no 512K ns/op}"
: "${topo512_csr:?bench.sh: BenchmarkTopologyBuild produced no 512K csr-bytes metric}"
: "${topo512_arena:?bench.sh: BenchmarkTopologyBuild produced no 512K arena-bytes metric}"

# Streaming exports: links/sec off the sealed CSR fast path at 64K leaves
# (the rate every unfaulted export runs at; the overlay fallback is the
# same benchmark's other sub-case).
exp_out=$(go test -run '^$' -bench 'BenchmarkExportEdges/sealed' -benchtime 1x ./internal/topology/)
exp_links=$(printf '%s\n' "$exp_out" | awk '$1 ~ /ExportEdges\/sealed/ { for (i = 1; i < NF; i++) if ($(i+1) == "links/s") print $i }')
: "${exp_links:?bench.sh: BenchmarkExportEdges produced no links/s metric}"

# Flow-level solver: one max-min-fair solve of a uniform matrix on a
# 64K-leaf XGFT (262,144 flows), reported as end-to-end flows/sec.
flow_out=$(go test -run '^$' -bench BenchmarkFlowSolve -benchtime 1x ./internal/flow/)
flow_metric() { # $1 = metric unit
	printf '%s\n' "$flow_out" | awk -v unit="$1" '
		$1 ~ /FlowSolve/ { for (i = 1; i < NF; i++) if ($(i+1) == unit) { print $i; exit } }'
}
flow_fps=$(flow_metric flows/s)
flow_rounds=$(flow_metric rounds)
flow_accepted=$(flow_metric accepted)
: "${flow_fps:?bench.sh: BenchmarkFlowSolve produced no flows/s metric}"
: "${flow_rounds:?bench.sh: BenchmarkFlowSolve produced no rounds metric}"
: "${flow_accepted:?bench.sh: BenchmarkFlowSolve produced no accepted metric}"

append_point() { # $1 = JSON object line
	if [ ! -f BENCH_engine.json ]; then
		printf '[\n%s\n]\n' "$1" >BENCH_engine.json
	else
		# Drop the closing bracket, add a comma to the last entry, re-close.
		awk -v point="$1" '
			{ lines[NR] = $0 }
			END {
				while (NR > 0 && lines[NR] !~ /\]/) NR--
				for (i = 1; i < NR; i++) print (i == NR - 1 ? lines[i] "," : lines[i])
				print point
				print "]"
			}' BENCH_engine.json >BENCH_engine.json.tmp
		mv BENCH_engine.json.tmp BENCH_engine.json
	fi
}

append_point "  {\"date\": \"$date\", \"exhibit\": \"fig8\", \"reps\": $reps, \"cycles\": $cycles, \"cores\": $cores, \"serial_s\": $serial, \"parallel_s\": $parallel, \"speedup\": $speedup}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"simcore-engine\", \"cycles_per_sec\": $cps}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"rfcmerge\", \"exhibit\": \"fig8\", \"shards\": 2, \"input_bytes\": $part_bytes, \"merge_s\": $merge_s, \"mb_per_sec\": $merge_mbps}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"rfclint\", \"packages\": $lint_pkgs, \"lint_s\": $lint_s}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"rfcd-path\", \"req_per_sec\": $rps}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"cover-build\", \"leaves\": 4096, \"build_ns\": $cov_build_ns, \"cover_bytes\": $cov_bytes, \"plain_bytes\": $cov_plain_bytes}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"topology-build\", \"leaves\": 65536, \"wire_ns\": $topo64_ns, \"csr_bytes\": $topo64_csr, \"arena_bytes\": $topo64_arena}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"topology-build\", \"leaves\": 524288, \"wire_ns\": $topo512_ns, \"csr_bytes\": $topo512_csr, \"arena_bytes\": $topo512_arena}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"export-edges\", \"leaves\": 65536, \"links_per_sec\": $exp_links}"
append_point "  {\"date\": \"$date\", \"benchmark\": \"flow-solver\", \"leaves\": 65536, \"flows\": 262144, \"flows_per_sec\": $flow_fps, \"rounds\": $flow_rounds, \"accepted\": $flow_accepted}"

echo "fig8 x$reps reps @ $cycles cycles: serial ${serial}s, parallel(${cores}) ${parallel}s, speedup ${speedup}x"
echo "simcore engine: $cps simulated cycles/sec"
echo "rfcmerge: 2 shards, $part_bytes bytes in ${merge_s}s (${merge_mbps} MB/s), byte-identical to unsharded"
echo "rfclint: $lint_pkgs packages clean in ${lint_s}s"
echo "rfcd: $rps cached /v1/path req/sec"
echo "cover sets (4096 leaves): rebuild ${cov_build_ns}ns, $cov_bytes compressed vs $cov_plain_bytes plain bytes"
echo "topology build (64K leaves): wire ${topo64_ns}ns, $topo64_csr CSR vs $topo64_arena arena bytes"
echo "topology build (512K leaves): wire ${topo512_ns}ns, $topo512_csr CSR vs $topo512_arena arena bytes"
echo "export edges (64K leaves, sealed): $exp_links links/s"
echo "flow solver (64K leaves, 262144 flows): $flow_fps flows/s, $flow_rounds rounds, accepted $flow_accepted"
