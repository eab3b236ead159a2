#!/bin/sh
# Sharded-run smoke for one rfcpaper exhibit: a full run, the same run as
# shards 0/2 and 1/2, the two partial JSON reports merged with rfcmerge,
# and a byte diff of the merged report against the full run.
#
# Usage: scripts/shard_smoke.sh <exhibit> <rfcpaper args...>
#   e.g. scripts/shard_smoke.sh fig8 -scale small -seed 7 -reps 1 -cycles 300 -quiet
# Exits non-zero if any step fails or the merged report differs.
set -eu
cd "$(dirname "$0")/.."

exhibit=$1
shift
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/rfcpaper" ./cmd/rfcpaper
go build -o "$work/rfcmerge" ./cmd/rfcmerge
"$work/rfcpaper" -exhibit "$exhibit" "$@" >"$work/full.txt"
"$work/rfcpaper" -exhibit "$exhibit" "$@" -shard 0/2 -out "$work/parts"
"$work/rfcpaper" -exhibit "$exhibit" "$@" -shard 1/2 -out "$work/parts"
"$work/rfcmerge" -quiet "$work/parts/$exhibit.shard0-of-2.json" "$work/parts/$exhibit.shard1-of-2.json" >"$work/merged.txt"
diff -u "$work/full.txt" "$work/merged.txt"
echo "shard_smoke.sh: $exhibit merged shards match the full run"
