#!/bin/sh
# Typed exits of the bench harnesses, end to end.
#
# A --csv directory that does not exist is an I/O error (exit 14),
# and a malformed --threads value or an unknown option a
# command-line error (exit 1): each must end with a one-line fatal
# diagnostic, not an abort on an uncaught exception or a run with
# defaults. --help prints the options and exits 0 without running.
#
# Usage: bench_exit_test.sh <fig7_speedup> <workdir>
set -u

BENCH=$1
WORK=$2

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

expect() { # name code args...
    name=$1
    want=$2
    shift 2
    "$BENCH" "$@" > "$WORK/$name.log" 2>&1
    got=$?
    [ "$got" -eq "$want" ] ||
        fail "$name exited $got, wanted $want (see $WORK/$name.log)"
    grep -q "^fatal: " "$WORK/$name.log" ||
        fail "$name printed no fatal diagnostic"
}

expect missing-csv 14 --scale=0.125 --threads=4 --csv="$WORK/no/such/dir"
expect zero-threads 1 --scale=0.125 --threads=0
expect bad-threads 1 --scale=0.125 --threads=abc
expect unknown-option 1 --scale=0.125 --thread=4

"$BENCH" --scale=0.125 --help > "$WORK/help.log" 2>&1
got=$?
[ "$got" -eq 0 ] || fail "help exited $got, wanted 0 (see $WORK/help.log)"
grep -q "^options: .*--threads=" "$WORK/help.log" ||
    fail "help printed no option list"
[ "$(wc -l < "$WORK/help.log")" -eq 1 ] ||
    fail "help ran the harness (see $WORK/help.log)"
echo "PASS"
