#!/usr/bin/env bash
# CI entry point: configure, build, then run the test tiers.
set -euo pipefail
cd "$(dirname "$0")"

cmake -B build -S .
cmake --build build -j "$(nproc)"
# Fast failure first: the unit tier is cheap and catches most breakage.
ctest --test-dir build -L unit --output-on-failure -j "$(nproc)"
# Remaining tiers (integration + dist) — each test runs exactly once.
ctest --test-dir build -LE unit --output-on-failure -j "$(nproc)"
# Dist tier once more with the real TCP transport: RIPPLE_TRANSPORT=tcp
# un-skips the multi-workload exactness pass over fork-based loopback
# ranks (tests/dist/test_transport.cpp), so the socket path — framing,
# barrier, measured timing — is exercised against the bit-exactness
# contract on every CI run. The same pass carries the owned-rows
# conformance suite (per-rank egress counters summing to sim's totals,
# leader-side collective gather bit-identical to the assembled owned
# rows), the halo-cache invalidation tests, and the memory-scaling
# property (a P=4 rank under half the P=1 footprint) — plus the
# wire-precision conformance test (--wire-precision=bf16 halves row
# payloads, tcp bit-identical to sim) and the migration conformance pass
# (migration supersteps after every batch over real sockets: re-homed
# ownership, gathered embeddings and per-batch counter sums all
# bit-identical to sim; see docs/repartition.md). The fault tier
# rides the same env gate: RIPPLE_TRANSPORT=tcp un-skips the forked
# rank-kill recovery drill (tests/dist/test_rank_kill.cpp) — a real
# SIGKILL mid-run, restore from the on-disk checkpoints, replay over real
# sockets, bit-identical to a never-failed run (docs/fault_tolerance.md).
RIPPLE_TRANSPORT=tcp ctest --test-dir build -L dist --output-on-failure \
  -j "$(nproc)"
# Owned-row shipping smoke through real binaries: each run RIPPLE_CHECKs
# bit-exactness at bench scale through migrate, checkpoint, restore and
# the leader gather (a few seconds each).
./build/bench_recovery --quick >/dev/null
./build/bench_drift_scenario --quick >/dev/null
# Example smoke (about a second each): the quickstart tour runs to the end,
# and fraud_detection's StreamingServer flip callbacks report the same
# flips a full scan of every account would.
./build/example_quickstart >/dev/null
./build/example_fraud_detection |
  grep -q "label flips observed: 76 (39 newly flagged accounts)"

# ThreadSanitizer pass over the unit tier: the work-stealing scheduler's
# Chase-Lev deque (common/scheduler.h) is lock-free, so races there would be
# silent corruption in a normal build — TSan turns them into CI failures.
# Benches/examples are skipped: TSan only needs the library + unit tests.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DRIPPLE_BUILD_BENCHES=OFF -DRIPPLE_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$(nproc)"
ctest --test-dir build-tsan -L unit --output-on-failure -j "$(nproc)"
# TSan also sweeps the dist engine suite, whose apply phases run stealing
# workers over per-partition shards. The migration suite rides along: its
# supersteps run between batches on the same stealing pool, so a racy
# rehome would surface here. The fault-injection and checkpoint suites
# join the sweep: injected kills and corruption unwind typed errors out of
# the same stealing pool, and a race there would be invisible in a normal
# build. (The forked rank-kill drills stay out:
# fork + SIGKILL under TSan's runtime is noise, and the ASan fault pass
# below covers them.)
ctest --test-dir build-tsan \
  -R "dist_engine|dist_migration|dist_fault_inject|dist_checkpoint" \
  --output-on-failure -j "$(nproc)"

# AddressSanitizer + UndefinedBehaviorSanitizer pass over the unit and
# dist tiers (complements TSan, which cannot see heap overflows or UB):
# the wire framing and the socket buffers are exactly the kind of
# byte-twiddling code ASan catches regressions in, so the dist tier —
# which carries the framing round-trips and the loopback socket path —
# rides along.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DRIPPLE_BUILD_BENCHES=OFF -DRIPPLE_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$(nproc)"
ctest --test-dir build-asan -L "unit|dist" --output-on-failure -j "$(nproc)"
# The dist tier above already carries the fault label's suites (decoder
# fuzzing, checkpoint CRC rejection, seeded kills); run the fault tier once
# more with the tcp gate open so the rank-kill recovery drill — real
# sockets, real SIGKILL, checkpoint restore — executes under ASan too.
RIPPLE_TRANSPORT=tcp ctest --test-dir build-asan -L fault \
  --output-on-failure -j "$(nproc)"

# Forced-scalar kernel pass over the unit tier: -DRIPPLE_KERNELS=scalar
# compiles the dispatch to always select the portable tier, so the scalar
# kernels (the bit-exactness reference every SIMD tier is tested against)
# stay exercised end-to-end on every host — including SIMD hosts where the
# default build would only ever run them inside test_tensor_kernels.
cmake -B build-scalar -S . -DRIPPLE_KERNELS=scalar \
  -DRIPPLE_BUILD_BENCHES=OFF -DRIPPLE_BUILD_EXAMPLES=OFF
cmake --build build-scalar -j "$(nproc)"
ctest --test-dir build-scalar -L unit --output-on-failure -j "$(nproc)"

# Kernel micro-bench smoke: the scalar-vs-dispatched variant axis through
# a real binary, so a dispatch or packing regression cannot hide behind
# in-process tests.
./build/bench_micro_kernels --quick >/dev/null
# Scheduler smoke: the stealing propagation core through a real binary at
# one and two pool workers.
./build/bench_parallel_scaling --quick --threads=1,2 >/dev/null

# Optional -march=native stage (gated on compiler+host support): the widest
# vector ISA the host has, with auto-vectorization and FMA contraction on
# for all NON-kernel TUs. The kernel TUs keep -ffp-contract=off (see
# CMakeLists.txt), so the scalar-vs-SIMD bit-exactness suites must still
# pass — this is the stage that would catch a contraction leak into the
# kernel tiers.
if "${CXX:-g++}" -march=native -x c++ -E /dev/null >/dev/null 2>&1; then
  cmake -B build-native -S . -DCMAKE_CXX_FLAGS="-march=native" \
    -DRIPPLE_BUILD_BENCHES=OFF -DRIPPLE_BUILD_EXAMPLES=OFF
  cmake --build build-native -j "$(nproc)"
  ctest --test-dir build-native -L unit --output-on-failure -j "$(nproc)"
else
  echo "ci.sh: -march=native unsupported on this host; skipping native stage"
fi
