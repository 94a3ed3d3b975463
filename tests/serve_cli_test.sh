#!/bin/sh
# End-to-end smoke for `pigeon serve --stdio`: pipe one valid request,
# one malformed line, and one unknown-language request through a real
# server process. The server must answer all three (one prediction, two
# structured errors), keep running across the bad inputs, and exit 0 on
# EOF. Also smokes the request-tracing surface: rid echo, the "timing"
# request flag, --trace/--slow-log/--flightrec capture files, the
# admin:"flightrec" verb, and the trace_report folding tool. And pins
# that `pigeon serve` answers what `pigeon predict` prints.
# Run as: serve_cli_test.sh <path-to-pigeon-binary> <path-to-trace_report>.
set -u

PIGEON="$1"
TRACE_REPORT="$2"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

"$PIGEON" synth --lang js --out "$TMP/corpus" --projects 3 --seed 7 \
  > /dev/null 2>&1 || fail "synth failed"
"$PIGEON" train --lang js --task vars --out "$TMP/model.bin" "$TMP/corpus" \
  > /dev/null 2>&1 || fail "train failed"

cat > "$TMP/requests" <<'EOF'
{"id":1,"lang":"js","source":"function f(x) { var total = x + 1; return total; }","k":2}
this line is not json
{"id":3,"lang":"golang","source":"package main"}
EOF

"$PIGEON" serve --model "$TMP/model.bin" --stdio \
  < "$TMP/requests" > "$TMP/responses" 2> "$TMP/serve.err" \
  || fail "serve exited nonzero on EOF: $(cat "$TMP/serve.err")"

[ "$(wc -l < "$TMP/responses")" = 3 ] \
  || fail "expected 3 response lines, got: $(cat "$TMP/responses")"

grep -q '"id":1,"ok":true' "$TMP/responses" \
  || fail "valid request did not get an ok response"
grep -q '"candidates":\[{"label":' "$TMP/responses" \
  || fail "ok response carries no prediction candidates"
grep -q '"code":"bad_request"' "$TMP/responses" \
  || fail "malformed line did not get a bad_request error"
grep -q '"id":3,"ok":false.*"code":"unknown_lang"' "$TMP/responses" \
  || fail "unknown language did not get an unknown_lang error"

# Every admitted request — ok or error — echoes its admission-order rid
# right after the schema field.
grep -q '"schema":"pigeon.serve.v1","rid":1,"id":1,"ok":true' \
  "$TMP/responses" || fail "first response does not echo rid 1"
grep -q '"rid":3,"id":3,"ok":false' "$TMP/responses" \
  || fail "error response does not echo its rid"

# --- pigeon predict == pigeon serve, binary against binary -------------
# Held-out sources from another seed carry strings and paths the model
# never saw. Served with k 3, each must get the elements, kinds and
# candidate labels `pigeon predict` prints for the same file, row by row.
TAB=$(printf '\t')
json_escape() {
  sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e "s/$TAB/\\\\t/g" "$1" \
    | awk 'BEGIN { ORS = "" } { print $0 "\\n" }'
}
"$PIGEON" synth --lang js --out "$TMP/heldout" --projects 1 --seed 8 \
  > /dev/null 2>&1 || fail "held-out synth failed"
: > "$TMP/same_requests"
: > "$TMP/predict_rows"
N=0
for F in "$TMP"/heldout/*_file1*.js; do
  N=$((N + 1))
  "$PIGEON" predict --model "$TMP/model.bin" "$F" > "$TMP/predict.out" \
    2> /dev/null || fail "predict failed on $F"
  # Table rows after title, header and rule: element, kind, prediction,
  # then the candidates as "a, b, c".
  tail -n +4 "$TMP/predict.out" | awk -v id="$N" '{
    c = ""
    for (i = 4; i <= NF; i++) {
      w = $i; sub(/,$/, "", w); c = c (c == "" ? "" : ",") w
    }
    print id, $1, $2, c
  }' >> "$TMP/predict_rows"
  printf '{"id":%d,"lang":"js","k":3,"source":"%s"}\n' "$N" \
    "$(json_escape "$F")" >> "$TMP/same_requests"
done
[ "$N" -ge 5 ] || fail "expected at least 5 held-out files, got $N"
[ -s "$TMP/predict_rows" ] || fail "predict printed no rows"

"$PIGEON" serve --model "$TMP/model.bin" --stdio \
  < "$TMP/same_requests" > "$TMP/same_responses" 2> "$TMP/same.err" \
  || fail "serve exited nonzero: $(cat "$TMP/same.err")"
[ "$(grep -c '"ok":true' "$TMP/same_responses")" = "$N" ] \
  || fail "not every held-out request was answered ok: $(cat "$TMP/same_responses")"
awk '{
  match($0, /"id":[0-9]+/); id = substr($0, RSTART + 5, RLENGTH - 5)
  n = split($0, parts, /\{"element":"/)
  for (i = 2; i <= n; i++) {
    p = parts[i]
    el = substr(p, 1, index(p, "\"") - 1)
    match(p, /"kind":"[^"]*"/); kind = substr(p, RSTART + 8, RLENGTH - 9)
    c = ""
    while (match(p, /"label":"[^"]*"/)) {
      c = c (c == "" ? "" : ",") substr(p, RSTART + 9, RLENGTH - 10)
      p = substr(p, RSTART + RLENGTH)
    }
    print id, el, kind, c
  }
}' "$TMP/same_responses" > "$TMP/serve_rows"
cmp -s "$TMP/predict_rows" "$TMP/serve_rows" \
  || fail "serve and predict disagree: $(diff "$TMP/predict_rows" "$TMP/serve_rows")"

# --- Request-scoped tracing over --stdio -------------------------------
# A "timing": true request echoes its per-stage decomposition inline;
# --trace/--slow-log/--flightrec persist the request timeline to disk
# (threshold 0 captures every request).
cat > "$TMP/traced_requests" <<'EOF'
{"id":20,"lang":"js","source":"function h(z) { var twice = z + z; return twice; }","timing":true}
{"id":21,"lang":"js","source":"function k(w) { var half = w / 2; return half; }"}
EOF

"$PIGEON" serve --model "$TMP/model.bin" --stdio \
  --trace "$TMP/trace.jsonl" --trace-max-mb 8 \
  --slow-log "$TMP/slow.jsonl" --slow-trace-ms 0 \
  --flightrec "$TMP/flight.jsonl" \
  < "$TMP/traced_requests" > "$TMP/traced_responses" 2> "$TMP/traced.err" \
  || fail "traced serve exited nonzero: $(cat "$TMP/traced.err")"

grep -q '"id":20,"ok":true.*"timing":{"queue_ms":' "$TMP/traced_responses" \
  || fail "timing:true request did not echo a stage decomposition"
grep -q '"total_ms":' "$TMP/traced_responses" \
  || fail "timing echo carries no total_ms"
grep -q '"id":21,"ok":true' "$TMP/traced_responses" \
  || fail "second traced request did not answer"
if grep '"id":21' "$TMP/traced_responses" | grep -q '"timing"'; then
  fail "response without the flag must not carry a timing object"
fi

[ -s "$TMP/trace.jsonl" ] || fail "--trace wrote no event stream"
grep -q '"event":"serve.request"' "$TMP/trace.jsonl" \
  || fail "event stream has no serve.request records"
[ -s "$TMP/slow.jsonl" ] || fail "--slow-log captured nothing at threshold 0"
[ "$(grep -c '"event":"serve.request"' "$TMP/slow.jsonl")" = 2 ] \
  || fail "slow log at threshold 0 lacks a request record"
# One record, not two shapes: each slow-log line is a trace line verbatim.
while IFS= read -r line; do
  grep -Fxq -- "$line" "$TMP/trace.jsonl" \
    || fail "slow log line is not in the event stream: $line"
done < "$TMP/slow.jsonl"
[ -s "$TMP/flight.jsonl" ] || fail "--flightrec dumped no ring"
grep -q '"event":"serve.request"' "$TMP/flight.jsonl" \
  || fail "flight recorder dump has no request records"

# trace_report folds the event stream and the slow log into a latency
# decomposition; mixed inputs are fine.
"$TRACE_REPORT" "$TMP/trace.jsonl" "$TMP/slow.jsonl" > "$TMP/report.txt" \
  2> "$TMP/report.err" \
  || fail "trace_report failed: $(cat "$TMP/report.err")"
grep -q 'latency decomposition' "$TMP/report.txt" \
  || fail "trace_report printed no decomposition table"
grep -q 'predict' "$TMP/report.txt" \
  || fail "trace_report table lacks the predict stage"
grep -q 'slowest requests' "$TMP/report.txt" \
  || fail "trace_report printed no slowest-requests table"

# --- Admin protocol over --stdio ---------------------------------------
# Mixed serve + admin traffic: the admin lines answer under the
# pigeon.admin.v1 schema, the serve line under pigeon.serve.v1, and an
# unknown verb is a structured bad_request that does not kill the server.
cat > "$TMP/admin_requests" <<'EOF'
{"id":10,"admin":"health"}
{"id":11,"lang":"js","source":"function g(y) { var out = y * 2; return out; }"}
{"id":12,"admin":"metrics"}
{"id":13,"admin":"slo"}
{"id":14,"admin":"frobnicate"}
{"id":15,"admin":"flightrec"}
EOF

"$PIGEON" serve --model "$TMP/model.bin" --stdio --slo-p99-ms 5000 \
  --prom "$TMP/metrics.prom" --metrics-interval 1 \
  < "$TMP/admin_requests" > "$TMP/admin_responses" 2> "$TMP/admin.err" \
  || fail "serve with admin traffic exited nonzero: $(cat "$TMP/admin.err")"

[ "$(wc -l < "$TMP/admin_responses")" = 6 ] \
  || fail "expected 6 admin-mix responses, got: $(cat "$TMP/admin_responses")"

grep -q '"schema":"pigeon.admin.v1","id":10,"ok":true,"admin":"health"' \
  "$TMP/admin_responses" || fail "admin:health did not answer"
grep -q '"status":"ok"' "$TMP/admin_responses" \
  || fail "health response carries no status"
grep -q '"id":11,"ok":true' "$TMP/admin_responses" \
  || fail "serve request between admin lines did not answer"
grep -q '"admin":"metrics".*"schema":"pigeon.metrics.v1"' \
  "$TMP/admin_responses" || fail "admin:metrics has no embedded snapshot"
grep -q '"admin":"metrics".*"serve.request.seconds"' \
  "$TMP/admin_responses" || fail "metrics snapshot has no windowed series"
grep -q '"admin":"slo".*"target_p99_ms":5000' "$TMP/admin_responses" \
  || fail "admin:slo does not echo the --slo-p99-ms target"
grep -q '"schema":"pigeon.admin.v1","id":14,"ok":false.*"code":"bad_request"' \
  "$TMP/admin_responses" || fail "unknown admin verb not a bad_request"
grep -q '"admin":"health".*"window":{"seconds":' "$TMP/admin_responses" \
  || fail "admin:health carries no windowed request/error rates"
grep -q '"id":15,"ok":true,"admin":"flightrec","flightrec":{"capacity":' \
  "$TMP/admin_responses" || fail "admin:flightrec did not answer"
grep -q '"admin":"flightrec".*"records":\[{"event":' "$TMP/admin_responses" \
  || fail "flightrec records are empty despite earlier traffic"

# --prom writes Prometheus text exposition at shutdown (and every
# --metrics-interval tick while running).
[ -s "$TMP/metrics.prom" ] || fail "--prom wrote no exposition file"
grep -q '^serve_requests_total ' "$TMP/metrics.prom" \
  || fail "exposition lacks serve_requests_total"
grep -q '^serve_request_seconds_bucket{le=' "$TMP/metrics.prom" \
  || fail "exposition lacks serve_request_seconds histogram buckets"
grep -q '^# TYPE serve_request_seconds histogram' "$TMP/metrics.prom" \
  || fail "exposition lacks TYPE headers"
[ -f "$TMP/metrics.prom.tmp" ] && fail "atomic-write staging file left behind"

# --- No idle flusher ---------------------------------------------------
# `pigeon serve --stdio --serve-workers 4` runs the main thread and four
# batcher workers. The periodic flusher joins them only when an output
# (--metrics here) gives it something to flush; the in-memory flight
# recorder alone does not. A sanitizer runtime may run one thread of its
# own (ThreadSanitizer does), so the counts are 5 or 6 without the flag
# and exactly one more with it.
# serve_threads FLAGS...: sets THREADS to the server's thread count once
# it has answered one request, then closes its stdin and reaps it.
serve_threads() {
  rm -f "$TMP/idle.fifo"
  mkfifo "$TMP/idle.fifo" || fail "mkfifo failed"
  "$PIGEON" serve --model "$TMP/model.bin" --stdio --serve-workers 4 "$@" \
    < "$TMP/idle.fifo" > "$TMP/idle.out" 2> "$TMP/idle.err" &
  IDLE_PID=$!
  exec 3> "$TMP/idle.fifo"
  echo '{"id":1,"lang":"js","source":"function f(x) { var y = x; return y; }"}' >&3
  i=0
  while [ "$(wc -l < "$TMP/idle.out")" -lt 1 ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "idle serve never answered: $(cat "$TMP/idle.err")"
    sleep 0.1
  done
  THREADS=$(ls "/proc/$IDLE_PID/task" | wc -l)
  exec 3>&-
  wait "$IDLE_PID" || fail "idle serve exited nonzero: $(cat "$TMP/idle.err")"
}
if [ -d /proc/self/task ]; then
  serve_threads
  IDLE=$THREADS
  [ "$IDLE" -ge 5 ] && [ "$IDLE" -le 6 ] \
    || fail "serve with no output flag runs $IDLE threads, expected 5"
  serve_threads --metrics "$TMP/idle.metrics.json"
  [ "$THREADS" = $((IDLE + 1)) ] \
    || fail "serve with --metrics runs $THREADS threads, expected $((IDLE + 1))"
else
  echo "SKIP: no /proc to count serve threads" >&2
fi

echo "PASS"
