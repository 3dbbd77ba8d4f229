#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the tlsimd daemon:
# start it on a free port with a temp journal, submit a tiny
# experiment via tlctl, wait for the result, check health and metrics,
# then drain with SIGTERM and require a clean exit.
#
# Run via `make serve-smoke`. Exits non-zero on any failure.
set -eu

GO="${GO:-go}"
WORK="$(mktemp -d)"
ADDR="127.0.0.1:18421"
BASE="http://$ADDR"
DAEMON_PID=""

cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "serve-smoke: building binaries"
"$GO" build -o "$WORK/tlsimd" ./cmd/tlsimd
"$GO" build -o "$WORK/tlctl" ./cmd/tlctl

echo "serve-smoke: starting tlsimd on $ADDR"
"$WORK/tlsimd" -addr "$ADDR" -journal "$WORK/journal.jsonl" \
    -workers 2 -queue 8 -drain-timeout 60s >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

# Wait for readiness.
i=0
until "$WORK/tlctl" -addr "$BASE" health >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serve-smoke: daemon never became ready" >&2
        cat "$WORK/daemon.log" >&2
        exit 1
    fi
    sleep 0.2
done
echo "serve-smoke: daemon ready"

echo "serve-smoke: submitting tiny experiment and waiting"
"$WORK/tlctl" -addr "$BASE" submit -policy tls-rr -jobs 2 \
    -custom-placement 2 -steps 100 -seed 3 -wait

# The resubmission spells the policy by its alias, so the cache hit also
# proves "rr" and "tls-rr" resolve to the same config hash.
echo "serve-smoke: identical resubmission must be a cache hit"
OUT="$("$WORK/tlctl" -addr "$BASE" submit -policy rr -jobs 2 \
    -custom-placement 2 -steps 100 -seed 3)"
echo "$OUT"
case "$OUT" in
*"cache hit"*) ;;
*)
    echo "serve-smoke: expected a dedup cache hit, got: $OUT" >&2
    exit 1
    ;;
esac

echo "serve-smoke: listing jobs"
"$WORK/tlctl" -addr "$BASE" list

if command -v curl >/dev/null 2>&1; then
    echo "serve-smoke: checking /metrics"
    curl -fsS "$BASE/metrics" | grep -q "tlsimd_jobs_completed_total 1" || {
        echo "serve-smoke: metrics missing completed counter" >&2
        exit 1
    }
else
    echo "serve-smoke: curl not available; skipping metrics scrape"
fi

echo "serve-smoke: SIGTERM drain"
kill -TERM "$DAEMON_PID"
i=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: daemon did not exit after SIGTERM" >&2
        cat "$WORK/daemon.log" >&2
        exit 1
    fi
    sleep 0.2
done
wait "$DAEMON_PID" 2>/dev/null && STATUS=0 || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "serve-smoke: daemon exited $STATUS after drain" >&2
    cat "$WORK/daemon.log" >&2
    exit 1
fi
DAEMON_PID=""
echo "serve-smoke: OK"
