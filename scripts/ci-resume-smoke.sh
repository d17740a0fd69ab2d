#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-safe sweep machinery (CI job
# resume-smoke; also runs standalone). It starts the E15 fail-slow sweeps
# (`rmrall -e E15`) with a checkpoint, interrupts them mid-run, resumes
# from the checkpoint, and requires the resumed run's report to be
# byte-identical to an uninterrupted serial run — the end-to-end version of the
# TestCheckpointResumeDeterminism gate, through the real binary, real
# checkpoint file, and real exit-status plumbing.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/rmrall" ./cmd/rmrall

# Interrupted run: -interrupt-after trips the same cooperative-stop path a
# SIGINT would (the signal itself is racy to time from a script; the hook
# stops deterministically mid-sweep). Expect the resumable exit status 3.
status=0
"$work/rmrall" -e E15 -parallel 2 \
    -checkpoint "$work/ck.json" -interrupt-after 25 \
    >"$work/interrupted.out" 2>"$work/interrupted.err" || status=$?
if [ "$status" -ne 3 ]; then
    echo "FAIL: interrupted run exited $status, want 3" >&2
    cat "$work/interrupted.err" >&2
    exit 1
fi
grep -q "resumable, rerun with -resume" "$work/interrupted.err" || {
    echo "FAIL: interrupted run did not advertise resumability:" >&2
    cat "$work/interrupted.err" >&2
    exit 1
}
[ -s "$work/ck.json" ] || { echo "FAIL: no checkpoint was flushed" >&2; exit 1; }

# Resume, then an independent uninterrupted serial run; their full reports
# must match byte for byte.
"$work/rmrall" -e E15 -parallel 2 -checkpoint "$work/ck.json" -resume \
    >"$work/resumed.out"
"$work/rmrall" -e E15 -parallel 1 >"$work/serial.out"
if ! diff -u "$work/serial.out" "$work/resumed.out"; then
    echo "FAIL: resumed run diverged from the uninterrupted serial run" >&2
    exit 1
fi

# A damaged checkpoint must be rejected up front, not silently merged or
# half-restored. (Configuration-mismatch rejection is covered at the unit
# level; the CLI cannot reconfigure the fixed E15 scenario.)
head -c 100 "$work/ck.json" >"$work/truncated.json"
status=0
"$work/rmrall" -e E15 -checkpoint "$work/truncated.json" -resume \
    >/dev/null 2>"$work/corrupt.err" || status=$?
if [ "$status" -eq 0 ] || ! grep -q "checkpoint" "$work/corrupt.err"; then
    echo "FAIL: corrupt checkpoint was not rejected (exit $status):" >&2
    cat "$work/corrupt.err" >&2
    exit 1
fi

echo "resume smoke: interrupt resumable, resume byte-identical, corrupt checkpoint rejected"
