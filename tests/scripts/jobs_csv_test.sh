#!/bin/sh
# --jobs bit-exactness of single-frame runs, end to end.
#
# A single-frame texdist_sim run simulates its frame on --jobs host
# threads; the per-frame result CSV (digest included) must be
# byte-identical at --jobs=1 and --jobs=4, with and without a
# coupling fault plan and the watchdog.
#
# Usage: jobs_csv_test.sh <texdist_sim> <workdir>
set -u

SIM=$1
WORK=$2

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

run() { # name jobs args...
    name=$1
    jobs=$2
    shift 2
    "$SIM" --scene=quake --scale=0.25 --procs=16 --jobs="$jobs" \
        --result-csv="$WORK/$name.j$jobs.csv" "$@" \
        > "$WORK/$name.j$jobs.log" 2>&1 ||
        fail "$name at --jobs=$jobs exited $? (see $WORK/$name.j$jobs.log)"
}

for jobs in 1 4; do
    run plain "$jobs" --dist=sli --param=4
    run faults "$jobs" --buffer=8 \
        "--fault=fifo-freeze:2,at=500,for=3000;kill-node:rand,at=4000" \
        --fault-seed=5 --watchdog-ticks=2000 --watchdog=degrade
done

for name in plain faults; do
    cmp -s "$WORK/$name.j1.csv" "$WORK/$name.j4.csv" ||
        fail "$name: --jobs=1 and --jobs=4 result CSVs differ"
done
grep -q "speedup:" "$WORK/plain.j4.log" || fail "no single-frame report"
echo "PASS"
