#!/usr/bin/env bash
# A/A check: the same code measured as two alternating sets must agree.
#
# Runs every workload N times as set A and N times as set B, alternating
# A, B, A, B ... so slow drift of the host lands on both sets alike, then
# compares the sets with `snn-benchmark compare --same-code`, which fails
# when the median of any end-to-end metric differs by more than its bound.
#
#   benchmark/aa.sh [N] [SECONDS] [WORKLOAD...]      (defaults: 5, run_seconds, all four)
#
# Run it from the repo root.  Result files land in benchmark/out/aa/.
set -euo pipefail

n="${1:-5}"
seconds="${2:-20}"
shift $(( $# > 2 ? 2 : $# ))
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
  workloads=(lenet_engine vgg11_tiled lenet_tcp_saturate lenet_tcp_burst)
fi

manifest="benchmark/Cargo.toml"
cargo build --release --quiet --offline --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/snn-benchmark"
out="benchmark/out"
mkdir -p "$out/aa"

status=0
for workload in "${workloads[@]}"; do
  a=() b=()
  for i in $(seq 1 "$n"); do
    for side in A B; do
      # Both sides use the same seeds, so the simulated counts must be equal.
      "$bin" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 > /dev/null
      file="$out/aa/$workload-$side-$i.json"
      mv "$out/result-$workload-seed$i-trace0.json" "$file"
      if [ "$side" = A ]; then a+=("$file"); else b+=("$file"); fi
    done
  done
  "$bin" compare --same-code "${a[@]}" --vs "${b[@]}" || status=1
done
exit "$status"
