#!/usr/bin/env bash
# Load-test smoke for the serving layer: boot circled on an ephemeral
# port, replay 100 concurrent clients with circleload, then SIGTERM it
# and verify the graceful drain.
#
# The smoke asserts the serving SLO end to end:
#   - circleload exits non-zero on any 5xx or transport error, so a
#     passing run means the service shed overload with 429s only;
#   - the -dup mix must produce result-cache hits (hit rate > 0);
#   - circled must exit 0 on SIGTERM (clean drain, in-flight work done);
#   - the final run manifest must parse back via `circlebench compare`.
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${LOADSMOKE_DIR:-$(mktemp -d)}"
mkdir -p "$dir"
go build -o "$dir/circled" ./cmd/circled
go build -o "$dir/circleload" ./cmd/circleload

# boot_circled NAME EXTRA_ARGS... starts circled in this shell (so
# `wait` can observe its exit status) and leaves its resolved host:port
# in $dir/NAME.addr (the service prints it once warmed).
boot_circled() {
  local name=$1; shift
  "$dir/circled" -addr 127.0.0.1:0 -scale 0.15 -queue 32 "$@" \
    >"$dir/$name.log" 2>&1 &
  echo $! >"$dir/$name.pid"
  local addr=""
  for _ in $(seq 1 120); do
    addr=$(sed -n 's/^circled: listening on \([^ ]*\).*/\1/p' "$dir/$name.log")
    if [ -n "$addr" ] && curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
      echo "$addr" >"$dir/$name.addr"
      return 0
    fi
    addr=""
    sleep 0.5
  done
  echo "loadsmoke: $name did not come up" >&2
  cat "$dir/$name.log" >&2
  return 1
}

cleanup() {
  for f in "$dir"/*.pid; do
    [ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
  done
}
trap cleanup EXIT

boot_circled circled -manifest "$dir/circled.manifest.jsonl"
addr=$(cat "$dir/circled.addr")

"$dir/circleload" -addr "http://$addr" -n 100 -c 100 -dup 0.3 -json \
  | tee "$dir/unary.report.json"

# The 0.3 duplicate mix must produce result-cache hits.
hits=$(sed -n 's/.*"server_cache_hits": \([0-9]*\).*/\1/p' "$dir/unary.report.json")
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "loadsmoke: no cache hits under a -dup mix (server_cache_hits=$hits)" >&2
  exit 1
fi

kill -TERM "$(cat "$dir/circled.pid")"
if ! wait "$(cat "$dir/circled.pid")"; then
  echo "loadsmoke: circled did not drain cleanly on SIGTERM" >&2
  cat "$dir/circled.log" >&2
  exit 1
fi
rm "$dir/circled.pid"

go run ./cmd/circlebench compare "$dir/circled.manifest.jsonl" >/dev/null

trap - EXIT

echo "loadsmoke: ok (artifacts in $dir)"
