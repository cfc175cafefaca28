#!/usr/bin/env bash
# Builds the benchmark driver and runs all four workloads at a tenth of
# their size, untraced and traced, with every correctness check on and no
# timing gate. Exits non-zero if the build or any check fails. The runs
# take under 90 s on a 2-vCPU host; the first build adds about 40 s.
#
# Run from anywhere:  benchmark/smoke.sh
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/provabs-benchmark"

for workload in cold-telephony compress-scale whatif-q1 service-q10; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 42 --seconds 4 --shrink 10 --trace "$trace" \
            2>/dev/null | tail -n 1 | grep -q '^{"correct":true,' || {
            echo "smoke: $workload (trace $trace) failed; rerun without 2>/dev/null:" >&2
            echo "  $bin --workload $workload --seed 42 --seconds 4 --shrink 10 --trace $trace" >&2
            exit 1
        }
        echo "smoke: $workload (trace $trace) ok"
    done
done
