#!/bin/sh
# In-process sweep equivalence test.
#
# Runs the same sweep twice: once in classic subprocess mode
# (fork/exec of texdist_sim per config) and once in-process with
# --threads=2, and asserts that the merged sweep.csv AND every
# per-config CSV are byte-identical. This is the guarantee that makes
# the two modes interchangeable — including resuming a subprocess
# sweep in-process and vice versa.
#
# Also checks that --resume across modes is a no-op: resuming the
# completed in-process sweep in subprocess mode must not rerun or
# change anything.
#
# In-process configs run texdist_sim's own frame loop, so a sampled
# (--sample) config and a failing config behave as in a child: a
# config whose --trace is missing fails alone with the child's exit
# code (6) while the rest of the sweep completes. A per-config
# --io-fault plan cannot be scoped to one thread and is rejected up
# front.
#
# Usage: inprocess_sweep_test.sh <texdist_sim> <sweep_runner> <workdir>
set -u

SIM=$1
RUNNER=$2
WORK=$3

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

CONFIGS="$WORK/sweep.cfg"
cat > "$CONFIGS" <<'EOF'
# Multi-frame sequence configs, a single-frame config and a sampled
# run (fast-forwarded, functional warm-up and detailed frames).
block8:  --dist=block --param=8 --frames=3 --pan=4
sli2:    --dist=sli --param=2 --frames=3 --pan=4
single:  --dist=block --param=16
sample:  --dist=block --param=8 --frames=6 --pan=8 --sample=warm:1,detail:1,ff:1
EOF

COMMON="--scene=quake --scale=0.25 --procs=4"

"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/sub" \
    -- $COMMON \
    || fail "subprocess sweep exited nonzero"

"$RUNNER" --threads=2 --configs="$CONFIGS" --out="$WORK/inproc" \
    -- $COMMON \
    || fail "in-process sweep exited nonzero"

for f in sweep.csv block8.csv sli2.csv single.csv sample.csv; do
    [ -f "$WORK/sub/$f" ] || fail "subprocess output missing $f"
    [ -f "$WORK/inproc/$f" ] || fail "in-process output missing $f"
    cmp "$WORK/sub/$f" "$WORK/inproc/$f" \
        || fail "$f differs between subprocess and in-process mode"
done

# Cross-mode resume: the in-process manifest must satisfy a
# subprocess --resume completely (everything already done).
"$RUNNER" --sim="$SIM" --configs="$CONFIGS" --out="$WORK/inproc" \
    --resume -- $COMMON \
    || fail "cross-mode resume exited nonzero"
cmp "$WORK/sub/sweep.csv" "$WORK/inproc/sweep.csv" \
    || fail "cross-mode resume changed sweep.csv"

# A failing config fails alone, in either mode: the sweep exits 2,
# the good config completes, and the manifest records exit 6 (the
# malformed-trace code) for the bad one.
field() { # manifest config field
    python3 -c '
import json, sys
root = json.load(open(sys.argv[1]))
for cfg in root["configs"]:
    if cfg["name"] == sys.argv[2]:
        print(cfg[sys.argv[3]])
' "$1" "$2" "$3"
}

cat > "$WORK/bad.cfg" <<EOF
good:    --dist=block --param=8 --frames=2 --pan=4
notrace: --dist=block --param=8 --trace=$WORK/missing.trace
EOF

"$RUNNER" --sim="$SIM" --configs="$WORK/bad.cfg" --out="$WORK/badsub" \
    -- $COMMON > /dev/null 2>&1
CODE=$?
[ "$CODE" -eq 2 ] \
    || fail "subprocess sweep with a bad config exited $CODE, want 2"
"$RUNNER" --threads=2 --configs="$WORK/bad.cfg" --out="$WORK/badin" \
    -- $COMMON > /dev/null 2>&1
CODE=$?
[ "$CODE" -eq 2 ] \
    || fail "in-process sweep with a bad config exited $CODE, want 2"

cmp "$WORK/badsub/good.csv" "$WORK/badin/good.csv" \
    || fail "good.csv differs between modes next to a failing config"
for mode in badsub badin; do
    MANIFEST="$WORK/$mode/sweep_manifest.json"
    [ -f "$MANIFEST" ] || fail "$mode: no sweep manifest"
    [ "$(field "$MANIFEST" notrace status)" = "failed" ] \
        || fail "$mode: missing-trace config not marked failed"
    [ "$(field "$MANIFEST" notrace exit_code)" = "6" ] \
        || fail "$mode: missing-trace config exit code is" \
                "$(field "$MANIFEST" notrace exit_code), want 6"
    [ "$(field "$MANIFEST" good status)" = "done" ] \
        || fail "$mode: good config not done next to a failing one"
done

# A per-config --io-fault is rejected up front by --threads, before
# any config runs.
cat > "$WORK/iofault.cfg" <<'EOF'
good:    --dist=block --param=8
faulty:  --dist=block --param=8 --io-fault=rename-fail:.csv,nth=1,count=100
EOF
"$RUNNER" --threads=2 --configs="$WORK/iofault.cfg" \
    --out="$WORK/iofault" -- $COMMON > /dev/null 2> "$WORK/iofault.err"
CODE=$?
[ "$CODE" -eq 1 ] \
    || fail "in-process sweep with --io-fault exited $CODE, want 1"
grep -q "io-fault" "$WORK/iofault.err" \
    || fail "no --io-fault rejection in: $(cat "$WORK/iofault.err")"
[ ! -f "$WORK/iofault/good.csv" ] \
    || fail "a config ran before the --io-fault rejection"

echo "PASS: in-process sweep output is byte-identical"
exit 0
