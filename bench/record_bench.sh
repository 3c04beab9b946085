#!/usr/bin/env bash
# Perf-trajectory recorder: writes BENCH_kernels.json, the repo's committed
# record of kernel throughput on a known host, so kernel/packing changes in
# later PRs diff against measured history instead of folklore.
#
# Sweeps:
#   * bench_micro_kernels --quick (its internal variant axis already re-runs
#     each case under the scalar tier and the dispatched tier);
#   * bench_parallel_scaling --quick (end-to-end engine throughput) at
#     --kernels=auto and --kernels=scalar;
#   * bench_fig12_dist_papers --quick --json (distributed scaling sweep,
#     modeled): throughput, wire traffic, barrier stall, and
#     rank_memory_bytes — the PER-RANK resident footprint (owned rows +
#     halo), which must shrink as the partition count grows;
#   * the same fig12 sweep once more over two local TcpTransport ranks
#     (--transport=tcp, rank 1 in the background): one measured row per
#     engine ("comm_measured":true), real seconds and real sockets;
#   * bench_recovery --quick --json (docs/fault_tolerance.md): the
#     periodic checkpoint tax
#     (checkpoint_write_sec, checkpoint_bytes) and the recovery cost
#     (restore_sec + recovery_replay_sec), each row bit-verifying the
#     recovered embeddings against the uninterrupted run ("exact":true);
#   * bench_drift_scenario --json (drifting-hot-region scenario,
#     docs/repartition.md): static partitioning vs online migration on the
#     same stream, one row per policy — the committed record that the
#     migrated run beats static on BOTH modeled makespan and peak max-rank
#     memory_bytes while computing bit-identical embeddings. Full (not
#     --quick) scale: the win needs enough windows for the static cut to
#     accumulate, and the whole run is tens of milliseconds.
#
# Output is one JSON document: header with the machine's dispatched kernel
# tier + host info, then "runs": the JSON-lines rows scraped verbatim from
# the benches. Rerun after kernel work and commit the diff:
#
#   ./bench/record_bench.sh            # writes BENCH_kernels.json
#   ./bench/record_bench.sh out.json   # alternate output path
#   BUILD_DIR=build-foo ./bench/record_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

build="${BUILD_DIR:-build}"
out="${1:-BENCH_kernels.json}"

for bin in bench_micro_kernels bench_parallel_scaling \
           bench_fig12_dist_papers bench_recovery bench_drift_scenario; do
  if [[ ! -x "$build/$bin" ]]; then
    echo "record_bench.sh: $build/$bin not found — build the benches first" \
         "(cmake -B $build -S . && cmake --build $build -j)" >&2
    exit 1
  fi
done

rows_file="$(mktemp)"
diag_file="$(mktemp)"
trap 'rm -f "$rows_file" "$diag_file"' EXIT

"$build/bench_micro_kernels" --quick >>"$rows_file" 2>>"$diag_file"

for kernels in auto scalar; do
  "$build/bench_parallel_scaling" --quick --kernels="$kernels" \
    >>"$rows_file" 2>>"$diag_file"
done

"$build/bench_fig12_dist_papers" --quick --json >>"$rows_file" 2>>"$diag_file"

# Measured fig12 rows: two ranks over loopback TCP. Only rank 0 prints;
# rank 1 runs the identical sweep in the background. FIG12_TCP_PORT moves
# the two ports (default 7311, 7312) off anything already listening.
port="${FIG12_TCP_PORT:-7311}"
peers="127.0.0.1:$port,127.0.0.1:$((port + 1))"
"$build/bench_fig12_dist_papers" --quick --json --transport=tcp --rank=1 \
  --peers="$peers" >/dev/null 2>>"$diag_file" &
rank1=$!
"$build/bench_fig12_dist_papers" --quick --json --transport=tcp --rank=0 \
  --peers="$peers" >>"$rows_file" 2>>"$diag_file"
wait "$rank1"

"$build/bench_recovery" --quick --json >>"$rows_file" 2>>"$diag_file"

"$build/bench_drift_scenario" --json >>"$rows_file" 2>>"$diag_file"

# micro_kernels prints "dispatched tier=<isa>" on stderr; that is the
# machine's auto-dispatch answer (avx512/avx2/scalar).
tier="$(sed -n 's/.*dispatched tier=\([a-z0-9]*\).*/\1/p' "$diag_file" \
        | head -1)"
cpu="$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo 2>/dev/null | head -1)"
compiler="$(${CXX:-g++} --version 2>/dev/null | head -1)"

{
  printf '{\n'
  printf '  "recorded_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "dispatched_tier": "%s",\n' "${tier:-unknown}"
  printf '  "host": {"cpu": "%s", "nproc": %s, "compiler": "%s"},\n' \
         "${cpu:-unknown}" "$(nproc)" "${compiler:-unknown}"
  printf '  "runs": [\n'
  sed '$!s/$/,/; s/^/    /' "$rows_file"
  printf '  ]\n}\n'
} >"$out"

count="$(wc -l <"$rows_file")"
echo "record_bench.sh: wrote $out ($count runs, tier=${tier:-unknown})"
