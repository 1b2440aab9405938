#!/bin/bash
set -u
cd /root/repo

# Preflight: refuse to burn hours of experiment time on a workspace that
# fails static analysis or whose training loop trips the numerics sanitizer.
# Record the thread count the parallel runtime will resolve to, so logs of
# long runs are attributable to a machine configuration.
threads="${UHSCM_THREADS:-$(nproc 2>/dev/null || echo 1)}"
echo "=== PREFLIGHT threads=$threads (UHSCM_THREADS=${UHSCM_THREADS:-unset}) ===" >> results/experiments.log
echo "uhscm: parallel kernels will use $threads thread(s)"
echo "=== PREFLIGHT ci $(date +%T) ===" >> results/experiments.log
if ! cargo run -p uhscm-xtask --quiet -- ci >> results/experiments.log 2>&1; then
  echo "PREFLIGHT_FAILED ci" >> results/experiments.log
  exit 1
fi
# The checked quickstart doubles as the telemetry run: UHSCM_OBS routes the
# observability layer's JSON-lines trace to results/trace.jsonl so every
# experiment batch leaves behind a machine-readable record of the pipeline
# stages, per-epoch losses, and retrieval probe statistics.
echo "=== PREFLIGHT checked quickstart $(date +%T) ===" >> results/experiments.log
if ! UHSCM_OBS=results/trace.jsonl cargo run --release --features checked --example quickstart \
    >> results/experiments.log 2>&1; then
  echo "PREFLIGHT_FAILED checked-quickstart" >> results/experiments.log
  exit 1
fi

for b in table1 table2 figure2 figure3 figure4 table3 figure5 figure6; do
  echo "=== START $b $(date +%T) ===" >> results/experiments.log
  ./target/release/$b --scale full > results/$b.out 2> results/$b.err
  rc=$?
  echo "=== DONE $b $(date +%T) rc=$rc ===" >> results/experiments.log
done

# Serving benchmark: the loadgen client drives an in-process uhscm-serve
# instance over loopback TCP and refreshes BENCH_serve.json (latency
# percentiles, throughput, batch-size distribution, shed rate).
echo "=== START loadgen $(date +%T) ===" >> results/experiments.log
cargo run --release -p uhscm-serve --bin loadgen > results/loadgen.out 2> results/loadgen.err
rc=$?
echo "=== DONE loadgen $(date +%T) rc=$rc ===" >> results/experiments.log

# Scale phase: the out-of-core segment store benchmark (DESIGN.md §17)
# stream-builds databases, loads them through the store-backed index, and
# refreshes BENCH_scale.json (schema uhscm-bench-scale/1). 10k and 100k run
# by default; the million-item point is opt-in via UHSCM_SCALE_1M=1 since
# it generates and encodes 10^6 items.
scale_sizes="10000,100000"
if [ "${UHSCM_SCALE_1M:-0}" = "1" ]; then
  scale_sizes="10000,100000,1000000"
fi
echo "=== START scale sizes=$scale_sizes $(date +%T) ===" >> results/experiments.log
cargo run --release -p uhscm-bench --bin scale -- --sizes "$scale_sizes" \
  > results/scale.out 2> results/scale.err
rc=$?
echo "=== DONE scale $(date +%T) rc=$rc ===" >> results/experiments.log
cp BENCH_scale.json results/BENCH_scale.json 2>/dev/null || true

echo "ALL_EXPERIMENTS_DONE" >> results/experiments.log
