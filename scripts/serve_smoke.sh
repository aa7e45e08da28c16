#!/bin/sh
# End-to-end smoke of the lvserve prediction daemon: build it, start
# it on a loopback port, replay the collect→fit→predict pipeline over
# HTTP with the committed fixed-seed Costas campaign, assert the
# responses are numerically sane, then restart the daemon and require
# byte-identical fit/predict responses (the determinism contract that
# makes cached service answers trustworthy). Then the scale passes:
# a durable daemon (-data-dir) is killed and restarted, must replay
# its snapshot log and answer fit/predict byte-identically without any
# re-upload; and a two-replica group (-replica 0/2, 1/2 with -peers)
# must answer every id byte-identically to the single instance through
# either replica. Finally the streaming pass: lvseq -format ndjson
# pipes a campaign into the O(1)-memory NDJSON ingest, the
# sketch-backed fit/predict must be sane and survive kill -9
# byte-identically, and two shard streams pooled with {"merge_ids"}
# must land on the single unsharded stream's content id. The policy
# pass asserts the GET /v1/policy restart-policy table: four ranked
# rows with sane fields, the winner equal to the top row, byte-stable
# bytes across a kill -9 replay, and exactly the winner that
# `lvpredict -policy` prints for the same campaign. The final
# observability pass checks Lvserve-Trace-Id on every response (both
# generated and caller-supplied), then issues a known request mix and
# requires /v1/metrics to expose every promised family with per-route
# counters exactly matching the traffic. Exits non-zero on any failed
# assertion; every daemon is always shut down.
#
#   scripts/serve_smoke.sh [port]
#
# Uses three consecutive ports starting at [port]. Needs curl and jq
# (both present on the GitHub Actions runners).
set -eu

port="${1:-18080}"
port1=$((port + 1))
port2=$((port + 2))
cd "$(dirname "$0")/.."

fixture=testdata/campaign_costas13.json
censored_fixture=testdata/campaign_costas13_censored.json
base="http://127.0.0.1:$port"
tmp="$(mktemp -d)"
pid=""
pid1=""
pid2=""

cleanup() {
    status=$?
    for p in "$pid" "$pid1" "$pid2"; do
        if [ -n "$p" ]; then
            kill "$p" 2>/dev/null || true
            wait "$p" 2>/dev/null || true
        fi
    done
    # Keep the daemon logs for the CI failure artifact before the temp
    # dir (fit/predict bodies and all) goes away.
    if [ -n "${ARTIFACTS_DIR:-}" ]; then
        mkdir -p "$ARTIFACTS_DIR"
        cp "$tmp"/*.log "$ARTIFACTS_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$tmp"
    exit $status
}
trap cleanup EXIT INT TERM

echo "== building lvserve"
go build -o "$tmp/lvserve" ./cmd/lvserve

# wait_healthy <base-url> <logfile>
wait_healthy() {
    i=0
    until curl -fsS "$1/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "lvserve did not become healthy; log:" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# start_daemon [extra flags...] — boots on $port, sets $pid.
start_daemon() {
    "$tmp/lvserve" -addr "127.0.0.1:$port" "$@" >"$tmp/lvserve.log" 2>&1 &
    pid=$!
    wait_healthy "$base" "$tmp/lvserve.log"
}

stop_daemon() {
    kill "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
}

# One pass of the pipeline; writes fit/predict bodies to "$tmp/fit.$1"
# and "$tmp/predict.$1".
pipeline() {
    pass="$1"

    echo "== ($pass) healthz"
    # A single instance: k = 1, no hint backlog, no peers to report.
    curl -fsS "$base/v1/healthz" | jq -e '
        .status == "ok" and .replication_factor == 1 and .hints == 0
        and (.peers == null or (.peers | length) == 0)
    ' >/dev/null

    echo "== ($pass) upload campaign"
    curl -fsS -d @"$fixture" "$base/v1/campaigns" >"$tmp/upload.$pass"
    id="$(jq -r .id "$tmp/upload.$pass")"
    [ -n "$id" ] && [ "$id" != null ]
    jq -e '.problem == "costas-13" and .runs == 200' "$tmp/upload.$pass" >/dev/null

    echo "== ($pass) fit (expect 200 with an accepted candidate)"
    code="$(curl -sS -o "$tmp/fit.$pass" -w '%{http_code}' \
        -d "{\"id\":\"$id\"}" "$base/v1/fit")"
    [ "$code" = 200 ] || { echo "fit returned $code: $(cat "$tmp/fit.$pass")" >&2; exit 1; }
    jq -e '.best.family != null and .best.mean > 0' "$tmp/fit.$pass" >/dev/null
    jq -e '.candidates[0].accepted == true' "$tmp/fit.$pass" >/dev/null

    echo "== ($pass) predict (numeric sanity)"
    curl -fsS "$base/v1/predict?id=$id&cores=16,64,256&quantile=0.5&target=8" \
        >"$tmp/predict.$pass"
    # Speed-ups must be finite, strictly increasing in n, and never
    # exceed the core count; E[Z(n)] positive; 8x needs >= 8 cores.
    jq -e '
        (.speedups | length) == 3
        and ([.speedups[].speedup] | . == (sort) and .[0] > 1)
        and ([.speedups[] | select(.speedup > .cores)] | length == 0)
        and ([.speedups[] | select(.min_expectation <= 0)] | length == 0)
        and .quantiles[0].value > 0
        and .cores_for_speedup.cores >= 8
    ' "$tmp/predict.$pass" >/dev/null

    echo "== ($pass) censored upload (budgeted campaign, 25% censored)"
    curl -fsS -d @"$censored_fixture" "$base/v1/campaigns" >"$tmp/upload_cens.$pass"
    cid="$(jq -r .id "$tmp/upload_cens.$pass")"
    [ -n "$cid" ] && [ "$cid" != null ]
    jq -e '.censored == 50 and .budget == 1274' "$tmp/upload_cens.$pass" >/dev/null

    echo "== ($pass) censored fit (expect 200 via the survival estimators, not 409)"
    code="$(curl -sS -o "$tmp/fit_cens.$pass" -w '%{http_code}' \
        -d "{\"id\":\"$cid\"}" "$base/v1/fit")"
    [ "$code" = 200 ] || { echo "censored fit returned $code: $(cat "$tmp/fit_cens.$pass")" >&2; exit 1; }
    jq -e '
        .best.estimator == "censored-mle"
        and .best.censored_fraction == 0.25
        and .best.mean > 0
        and ([.candidates[] | select(.accepted)] | length >= 1)
    ' "$tmp/fit_cens.$pass" >/dev/null

    echo "== ($pass) censored predict (numeric sanity)"
    curl -fsS "$base/v1/predict?id=$cid&cores=16,64,256&quantile=0.5" \
        >"$tmp/predict_cens.$pass"
    jq -e '
        (.speedups | length) == 3
        and ([.speedups[].speedup] | . == (sort) and .[0] > 1)
        and ([.speedups[] | select(.min_expectation <= 0)] | length == 0)
        and .quantiles[0].value > 0
        and .model.estimator == "censored-mle"
    ' "$tmp/predict_cens.$pass" >/dev/null

    echo "== ($pass) error mapping (unknown id -> 404)"
    code="$(curl -sS -o /dev/null -w '%{http_code}' \
        -d '{"id":"c0000000000000000"}' "$base/v1/fit")"
    [ "$code" = 404 ]
}

echo "== starting lvserve on port $port"
start_daemon
pipeline first
echo "== restarting daemon"
stop_daemon
start_daemon
pipeline second
stop_daemon

echo "== byte-stability across restarts"
cmp "$tmp/fit.first" "$tmp/fit.second"
cmp "$tmp/predict.first" "$tmp/predict.second"
cmp "$tmp/fit_cens.first" "$tmp/fit_cens.second"
cmp "$tmp/predict_cens.first" "$tmp/predict_cens.second"

# --- durability: upload → kill -9 → restart replays the snapshot ---
# log; no re-upload, byte-identical answers.

echo "== durability: uploading to a -data-dir daemon"
datadir="$tmp/data"
start_daemon -data-dir "$datadir"
curl -fsS -d @"$fixture" "$base/v1/campaigns" >"$tmp/dur_upload"
did="$(jq -r .id "$tmp/dur_upload")"
curl -fsS -d @"$censored_fixture" "$base/v1/campaigns" >"$tmp/dur_upload_cens"
cdid="$(jq -r .id "$tmp/dur_upload_cens")"
curl -fsS -d "{\"id\":\"$did\"}" "$base/v1/fit" >"$tmp/dur_fit.before"
curl -fsS "$base/v1/predict?id=$did&cores=16,64,256&quantile=0.5&target=8" >"$tmp/dur_predict.before"
curl -fsS -d "{\"id\":\"$cdid\"}" "$base/v1/fit" >"$tmp/dur_fit_cens.before"
curl -fsS "$base/v1/healthz" | jq -e '
    .durable == true and .campaigns == 2 and .bytes > 0
' >/dev/null

echo "== durability: kill -9 and restart on the same data dir"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
start_daemon -data-dir "$datadir"
curl -fsS "$base/v1/healthz" >"$tmp/dur_health"
jq -e '.durable == true and .campaigns == 2 and .replayed == 2' "$tmp/dur_health" >/dev/null

echo "== durability: byte-identical fit/predict with no re-upload"
curl -fsS -d "{\"id\":\"$did\"}" "$base/v1/fit" >"$tmp/dur_fit.after"
curl -fsS "$base/v1/predict?id=$did&cores=16,64,256&quantile=0.5&target=8" >"$tmp/dur_predict.after"
curl -fsS -d "{\"id\":\"$cdid\"}" "$base/v1/fit" >"$tmp/dur_fit_cens.after"
stop_daemon
cmp "$tmp/dur_fit.before" "$tmp/dur_fit.after"
cmp "$tmp/dur_predict.before" "$tmp/dur_predict.after"
cmp "$tmp/dur_fit_cens.before" "$tmp/dur_fit_cens.after"
# The durable answers are also exactly the in-memory daemon's answers.
cmp "$tmp/fit.first" "$tmp/dur_fit.after"
cmp "$tmp/predict.first" "$tmp/dur_predict.after"
cmp "$tmp/fit_cens.first" "$tmp/dur_fit_cens.after"

# --- sharding: a two-replica group answers every id identically to --
# the single instance, through either replica.

echo "== sharding: booting replicas 0/2 and 1/2"
peers="127.0.0.1:$port1,127.0.0.1:$port2"
base1="http://127.0.0.1:$port1"
base2="http://127.0.0.1:$port2"
"$tmp/lvserve" -addr "127.0.0.1:$port1" -replica 0/2 -peers "$peers" >"$tmp/replica0.log" 2>&1 &
pid1=$!
"$tmp/lvserve" -addr "127.0.0.1:$port2" -replica 1/2 -peers "$peers" >"$tmp/replica1.log" 2>&1 &
pid2=$!
wait_healthy "$base1" "$tmp/replica0.log"
wait_healthy "$base2" "$tmp/replica1.log"

echo "== sharding: uploads through replica 0 route to their owners"
curl -fsS -d @"$fixture" "$base1/v1/campaigns" >"$tmp/shard_upload"
[ "$(jq -r .id "$tmp/shard_upload")" = "$did" ]
curl -fsS -d @"$censored_fixture" "$base1/v1/campaigns" >"$tmp/shard_upload_cens"
[ "$(jq -r .id "$tmp/shard_upload_cens")" = "$cdid" ]
c1="$(curl -fsS "$base1/v1/healthz" | jq .campaigns)"
c2="$(curl -fsS "$base2/v1/healthz" | jq .campaigns)"
[ "$((c1 + c2))" = 2 ] || {
    echo "corpus spread over $c1+$c2 resident campaigns, want 2 total" >&2
    exit 1
}
curl -fsS "$base1/v1/healthz" | jq -e '.replica == "0/2"' >/dev/null
curl -fsS "$base2/v1/healthz" | jq -e '.replica == "1/2"' >/dev/null

echo "== sharding: healthz exposes the peer breaker and hint queue"
# Proxied traffic just flowed between the replicas, so each reports
# its one peer's breaker closed and nothing queued for handoff.
for b in "$base1" "$base2"; do
    curl -fsS "$b/v1/healthz" | jq -e '
        .replication_factor == 1 and .hints == 0
        and (.peers | length) == 1 and .peers[0].state == "closed"
    ' >/dev/null
done

echo "== sharding: every id answers identically through either replica"
for b in "$base1" "$base2"; do
    curl -fsS -d "{\"id\":\"$did\"}" "$b/v1/fit" >"$tmp/shard_fit"
    cmp "$tmp/fit.first" "$tmp/shard_fit"
    curl -fsS "$b/v1/predict?id=$did&cores=16,64,256&quantile=0.5&target=8" >"$tmp/shard_predict"
    cmp "$tmp/predict.first" "$tmp/shard_predict"
    curl -fsS -d "{\"id\":\"$cdid\"}" "$b/v1/fit" >"$tmp/shard_fit_cens"
    cmp "$tmp/fit_cens.first" "$tmp/shard_fit_cens"
    curl -fsS "$b/v1/predict?id=$cdid&cores=16,64,256&quantile=0.5" >"$tmp/shard_predict_cens"
    cmp "$tmp/predict_cens.first" "$tmp/shard_predict_cens"
done

echo "== sharding: unknown ids still 404 through the routing layer"
code="$(curl -sS -o /dev/null -w '%{http_code}' \
    -d '{"id":"c00000000000000000000000000000000"}' "$base2/v1/fit")"
[ "$code" = 404 ]

kill "$pid1" "$pid2"
wait "$pid1" 2>/dev/null || true
wait "$pid2" 2>/dev/null || true
pid1=""
pid2=""

# --- streaming: lvseq -format ndjson pipes into the O(1)-memory -----
# ingest; the server keeps only a quantile sketch, fits off it, and
# shard streams pooled by id land on the single stream's content hash.

echo "== streaming: building lvseq and collecting the NDJSON streams"
go build -o "$tmp/lvseq" ./cmd/lvseq
"$tmp/lvseq" -problem costas -size 13 -runs 200 -seed 1 \
    -format ndjson >"$tmp/full.ndjson" 2>/dev/null
"$tmp/lvseq" -problem costas -size 13 -runs 200 -seed 1 -shard 0/2 \
    -format ndjson >"$tmp/shard0.ndjson" 2>/dev/null
"$tmp/lvseq" -problem costas -size 13 -runs 200 -seed 1 -shard 1/2 \
    -format ndjson >"$tmp/shard1.ndjson" 2>/dev/null

echo "== streaming: NDJSON upload folds into a sketch server-side"
sdir="$tmp/streamdata"
start_daemon -data-dir "$sdir"
curl -fsS -H 'Content-Type: application/x-ndjson' --data-binary @"$tmp/full.ndjson" \
    "$base/v1/campaigns" >"$tmp/stream_upload"
sid="$(jq -r .id "$tmp/stream_upload")"
[ -n "$sid" ] && [ "$sid" != null ]
jq -e '.sketched == true and .runs == 200 and .problem == "costas-13"' \
    "$tmp/stream_upload" >/dev/null

echo "== streaming: sketch-backed fit and predict"
code="$(curl -sS -o "$tmp/stream_fit.before" -w '%{http_code}' \
    -d "{\"id\":\"$sid\"}" "$base/v1/fit")"
[ "$code" = 200 ] || { echo "sketch fit returned $code: $(cat "$tmp/stream_fit.before")" >&2; exit 1; }
jq -e '
    .best.estimator == "quantile-sketch"
    and .best.family != null and .best.mean > 0
    and ([.candidates[] | select(.accepted)] | length >= 1)
' "$tmp/stream_fit.before" >/dev/null
curl -fsS "$base/v1/predict?id=$sid&cores=16,64,256&quantile=0.5&target=8" \
    >"$tmp/stream_predict.before"
jq -e '
    (.speedups | length) == 3
    and ([.speedups[].speedup] | . == (sort) and .[0] > 1)
    and ([.speedups[] | select(.speedup > .cores)] | length == 0)
    and ([.speedups[] | select(.min_expectation <= 0)] | length == 0)
    and .quantiles[0].value > 0
    and .cores_for_speedup.cores >= 8
' "$tmp/stream_predict.before" >/dev/null

echo "== streaming: shard streams pool to the single stream's id"
for s in 0 1; do
    curl -fsS -H 'Content-Type: application/x-ndjson' \
        --data-binary @"$tmp/shard$s.ndjson" \
        "$base/v1/campaigns" >"$tmp/stream_shard$s"
    jq -e '.sketched == true' "$tmp/stream_shard$s" >/dev/null
done
s0="$(jq -r .id "$tmp/stream_shard0")"
s1="$(jq -r .id "$tmp/stream_shard1")"
curl -fsS -d "{\"merge_ids\":[\"$s0\",\"$s1\"]}" "$base/v1/campaigns" \
    >"$tmp/stream_merge"
jq -e '.merged_shards == 2 and .sketched == true and .runs == 200' "$tmp/stream_merge" >/dev/null
[ "$(jq -r .id "$tmp/stream_merge")" = "$sid" ] || {
    echo "merged shard sketches landed on $(jq -r .id "$tmp/stream_merge"), want $sid" >&2
    exit 1
}

echo "== streaming: kill -9, replay, byte-identical sketch answers"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
start_daemon -data-dir "$sdir"
curl -fsS -d "{\"id\":\"$sid\"}" "$base/v1/fit" >"$tmp/stream_fit.after"
curl -fsS "$base/v1/predict?id=$sid&cores=16,64,256&quantile=0.5&target=8" \
    >"$tmp/stream_predict.after"
stop_daemon
cmp "$tmp/stream_fit.before" "$tmp/stream_fit.after"
cmp "$tmp/stream_predict.before" "$tmp/stream_predict.after"

# --- restart policies: GET /v1/policy serves the ranked table, ------
# byte-stable across kill -9, and its winner is exactly the verdict
# `lvpredict -policy` prints for the same campaign.

echo "== policy: daemon table (field sanity, winner = top row)"
pdir="$tmp/policydata"
start_daemon -data-dir "$pdir"
curl -fsS -d @"$fixture" "$base/v1/campaigns" >/dev/null
curl -fsS "$base/v1/policy?id=$did" >"$tmp/policy.before"
# Four distinct policies ranked best-first, the winner binding to the
# top row, finite replay means with CIs that bracket sanely, and every
# row's gain positive (gain 1.0 marks ties with never-restarting).
jq -e '
    (.policies | length) == 4
    and ([.policies[].policy] | sort) == ["fitted-optimal", "fixed-cutoff", "luby", "no-restart"]
    and .winner == .policies[0].policy
    and .law != null and .level == 0.95 and .reps > 0 and .resamples > 0
    and ([.policies[] | select(.simulated <= 0 or .sim_stderr <= 0)] | length) == 0
    and ([.policies[] | select(.ci_lo >= .ci_hi)] | length) == 0
    and ([.policies[] | select(.gain <= 0)] | length) == 0
' "$tmp/policy.before" >/dev/null

echo "== policy: unknown id -> 404"
code="$(curl -sS -o /dev/null -w '%{http_code}' "$base/v1/policy?id=c0000000000000000")"
[ "$code" = 404 ]

echo "== policy: kill -9, replay, byte-identical table"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
start_daemon -data-dir "$pdir"
curl -fsS "$base/v1/policy?id=$did" >"$tmp/policy.after"
stop_daemon
cmp "$tmp/policy.before" "$tmp/policy.after"

echo "== policy: lvpredict -policy agrees with the daemon's winner"
go build -o "$tmp/lvpredict" ./cmd/lvpredict
"$tmp/lvpredict" -in "$fixture" -policy >"$tmp/policy_cli"
cli_winner="$(sed -n 's/^winner: //p' "$tmp/policy_cli")"
daemon_winner="$(jq -r .winner "$tmp/policy.before")"
[ -n "$cli_winner" ] || { echo "lvpredict -policy printed no winner line" >&2; exit 1; }
[ "$cli_winner" = "$daemon_winner" ] || {
    echo "CLI winner '$cli_winner' != daemon winner '$daemon_winner'" >&2
    exit 1
}

# --- observability: every response carries a trace ID, and ----------
# /v1/metrics exposes the whole telemetry contract with per-route
# counters that match the exact traffic a fresh daemon just served.

echo "== metrics: fresh daemon, trace IDs on every response"
start_daemon
trace="$(curl -fsS -D - -o /dev/null "$base/v1/healthz" |
    tr -d '\r' | awk 'tolower($1) == "lvserve-trace-id:" {print $2}')"
[ "${#trace}" = 16 ] || {
    echo "healthz response trace ID = '$trace', want 16 hex chars" >&2
    exit 1
}
echoed="$(curl -fsS -D - -o /dev/null -H 'Lvserve-Trace-Id: cafecafecafecafe' \
    "$base/v1/healthz" |
    tr -d '\r' | awk 'tolower($1) == "lvserve-trace-id:" {print $2}')"
[ "$echoed" = cafecafecafecafe ] || {
    echo "caller trace ID came back as '$echoed', want it echoed verbatim" >&2
    exit 1
}

echo "== metrics: known traffic (1 upload, 2 fits, 3 predicts)"
curl -fsS -d @"$fixture" "$base/v1/campaigns" >"$tmp/met_upload"
mid="$(jq -r .id "$tmp/met_upload")"
curl -fsS -d "{\"id\":\"$mid\"}" "$base/v1/fit" >/dev/null
curl -fsS -d "{\"id\":\"$mid\"}" "$base/v1/fit" >/dev/null
for q in 0.5 0.9 0.99; do
    curl -fsS "$base/v1/predict?id=$mid&cores=16,64&quantile=$q" >/dev/null
done

echo "== metrics: scrape is valid exposition covering every family"
curl -fsS -D "$tmp/met_headers" "$base/v1/metrics" >"$tmp/metrics.txt"
stop_daemon
grep -qi 'content-type: text/plain; version=0.0.4' "$tmp/met_headers"
for fam in \
    lvserve_requests_total \
    lvserve_request_latency_seconds \
    lvserve_request_latency_quantile_seconds \
    lvserve_peer_requests_total \
    lvserve_peer_latency_seconds \
    lvserve_peer_breaker_transitions_total \
    lvserve_hints_enqueued_total \
    lvserve_hints_delivered_total \
    lvserve_hints_queue_depth \
    lvserve_anti_entropy_round_seconds \
    lvserve_anti_entropy_pulled_total \
    lvserve_fit_computes_total \
    lvserve_policy_computes_total \
    lvserve_quorum_shortfall_total \
    lvserve_store_campaigns \
    lvserve_store_bytes \
    lvserve_inflight_requests
do
    grep -q "^# TYPE $fam " "$tmp/metrics.txt" || {
        echo "metrics scrape is missing family $fam:" >&2
        cat "$tmp/metrics.txt" >&2
        exit 1
    }
done

echo "== metrics: per-route counters match the traffic issued"
# healthz polls from wait_healthy are unknown-count, so only the three
# deterministic routes are pinned; the scrape itself is recorded after
# its handler finishes writing, so it never counts itself.
grep -qF 'lvserve_requests_total{route="/v1/campaigns",status="2xx"} 1' "$tmp/metrics.txt"
grep -qF 'lvserve_requests_total{route="/v1/fit",status="2xx"} 2' "$tmp/metrics.txt"
grep -qF 'lvserve_requests_total{route="/v1/predict",status="2xx"} 3' "$tmp/metrics.txt"
grep -qF 'lvserve_request_latency_seconds_count{route="/v1/fit"} 2' "$tmp/metrics.txt"
grep -q 'lvserve_request_latency_quantile_seconds{route="/v1/fit",quantile="0.99"}' "$tmp/metrics.txt"

echo "serve smoke: OK"
