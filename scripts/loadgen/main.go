// Command loadgen replays a mixed upload/fit/predict workload against
// an lvserve replica group and gates on the group's availability
// contract: zero failed requests after client-side retries and a p99
// latency budget. It is the load half of the chaos drill
// (scripts/serve_chaos.sh kills and restarts a replica while this
// runs) and doubles as a convergence checker: -verify re-uploads the
// corpus, requires byte-identical fit/predict answers from every
// replica, and waits for all hinted-handoff queues to drain.
//
// Usage:
//
//	go run ./scripts/loadgen -targets http://h0:8080,http://h1:8080,http://h2:8080 -duration 30s
//	go run ./scripts/loadgen -targets ... -verify -converge-timeout 60s
//	go run ./scripts/loadgen -targets ... -wait-converged -expect-copies 32 -converge-timeout 60s
//
// -wait-converged is the passive half of the anti-entropy drill: it
// issues no campaign reads or writes at all — only /v1/healthz polls —
// until every hint queue is empty and the group holds -expect-copies
// campaign copies in total. Because nothing in it can trigger
// read-repair, reaching the expected copy count proves the background
// digest exchange did the healing on its own.
//
// The workload is deterministic for a fixed -seed: -campaigns
// synthetic exponential-runtime campaigns (the shape the paper's
// estimators model) are uploaded up front, then -concurrency workers
// issue uploads (idempotent re-uploads of the same canonical bytes),
// fits and predicts round-robin across the targets until -duration
// (or -requests) runs out. A request counts as failed only when every
// retry is exhausted: transport errors and 5xx rotate to the next
// target, while 200 — and 422, a deterministic "no family accepted"
// fit verdict — are successes. A 404 for a campaign this run holds an
// upload ack for is a lost write and fails immediately.
//
// -metrics-check adds a telemetry cross-check to the load gate: after
// the run it scrapes every target's GET /v1/metrics, requires the
// request/peer/hint/anti-entropy/fit-share/quorum families to be
// present, and compares the fleet's own sketch-backed p99 (the
// server-side lvserve_request_latency_quantile_seconds gauge) against
// the p99 this client observed. The server quantile measures handler
// time only, while the client's includes the network, retries and
// backoff — so the gate is one-sided: the server's p99 must be
// positive and must not exceed the client's by more than
// -metrics-tolerance (plus a fixed 250ms floor for near-zero runs).
// A daemon whose self-reported latency distribution disagrees with
// what its clients measured is lying about the very statistic the
// project exists to estimate.
//
// The summary is one JSON object on stdout; the exit status is the
// gate (0 = passed).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lasvegas"
	"lasvegas/internal/obs"
)

func main() {
	var (
		targetsS   = flag.String("targets", "", "comma-separated replica base URLs (required)")
		campaigns  = flag.Int("campaigns", 16, "synthetic campaigns in the working set")
		runs       = flag.Int("runs", 48, "runs per synthetic campaign")
		conc       = flag.Int("concurrency", 8, "concurrent workers")
		requests   = flag.Int("requests", 0, "total requests to issue (0 = run for -duration)")
		duration   = flag.Duration("duration", 15*time.Second, "how long to generate load when -requests is 0")
		retries    = flag.Int("retries", 5, "client-side retries per request (rotating targets)")
		backoff    = flag.Duration("retry-backoff", 100*time.Millisecond, "delay between client-side retries")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		p99Budget  = flag.Duration("p99", 0, "fail if p99 latency exceeds this (0 = no latency gate)")
		seed       = flag.Int64("seed", 1, "workload seed (campaign contents and op mix)")
		verify     = flag.Bool("verify", false, "verify convergence instead of generating load")
		convergeTO = flag.Duration("converge-timeout", 30*time.Second, "how long -verify and -wait-converged wait for convergence")
		waitConv   = flag.Bool("wait-converged", false, "poll healthz only (no campaign reads or writes) until hints drain and -expect-copies holds")
		expCopies  = flag.Int("expect-copies", 0, "with -wait-converged: total campaign copies the group must hold across all targets (0 = only require drained hints)")
		metChk     = flag.Bool("metrics-check", false, "after the load run, scrape every target's /v1/metrics and gate on the server-side latency sketch agreeing with the client-observed p99")
		metTol     = flag.Float64("metrics-tolerance", 0.5, "with -metrics-check: fractional headroom the server p99 may exceed the client p99 by before failing")
	)
	flag.Parse()
	if *targetsS == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -targets is required")
		os.Exit(2)
	}
	targets := strings.Split(*targetsS, ",")
	for i := range targets {
		targets[i] = strings.TrimRight(strings.TrimSpace(targets[i]), "/")
	}

	lg := &loadgen{
		targets: targets,
		client:  &http.Client{Timeout: *timeout},
		retries: *retries,
		backoff: *backoff,
	}
	// The passive mode must not seed: any upload would hand the group
	// the very copies whose arrival it is supposed to observe.
	if *waitConv {
		os.Exit(lg.waitConverged(*expCopies, *convergeTO))
	}

	bodies := make([][]byte, *campaigns)
	ids := make([]string, *campaigns)
	for i := range bodies {
		bodies[i] = synthCampaign(*seed, i, *runs)
	}

	// Seed the working set; these uploads are part of the gate too.
	for i, b := range bodies {
		id, err := lg.upload(i, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: seeding campaign %d: %v\n", i, err)
			os.Exit(1)
		}
		ids[i] = id
	}

	if *verify {
		os.Exit(lg.verify(bodies, ids, *convergeTO))
	}
	mc := metricsGate{enabled: *metChk, tolerance: *metTol}
	os.Exit(lg.load(bodies, ids, *conc, *requests, *duration, *p99Budget, mc))
}

// synthCampaign builds the i-th deterministic synthetic campaign:
// exponential iteration counts, the runtime law the paper predicts
// parallel speed-ups from.
func synthCampaign(seed int64, i, runs int) []byte {
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	iters := make([]float64, runs)
	for j := range iters {
		iters[j] = float64(int(rng.ExpFloat64()*500) + 1)
	}
	c := &lasvegas.Campaign{
		Problem:    fmt.Sprintf("loadgen-%d", i),
		Runs:       runs,
		Seed:       uint64(i + 1),
		Iterations: iters,
	}
	data, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return data
}

type loadgen struct {
	targets []string
	client  *http.Client
	retries int
	backoff time.Duration

	retried atomic.Int64 // attempts beyond the first, across all ops
}

// do issues one logical request with retries rotating across targets.
// It returns the final status, body and per-op latency (all attempts
// included — the client-visible cost of the op).
func (lg *loadgen) do(start int, method, path string, body []byte) (status int, data []byte, d time.Duration, err error) {
	t0 := time.Now()
	var lastErr error
	for attempt := 0; attempt <= lg.retries; attempt++ {
		if attempt > 0 {
			lg.retried.Add(1)
			time.Sleep(lg.backoff)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		target := lg.targets[(start+attempt)%len(lg.targets)]
		req, err := http.NewRequest(method, target+path, rd)
		if err != nil {
			return 0, nil, time.Since(t0), err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := lg.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			// 5xx covers a shutting-down replica (503) and a group with
			// no live owner (502): retry on the next target.
			lastErr = fmt.Errorf("%s %s via %s: status %d: %s", method, path, target, resp.StatusCode, data)
			continue
		}
		return resp.StatusCode, data, time.Since(t0), nil
	}
	return 0, nil, time.Since(t0), fmt.Errorf("retries exhausted: %w", lastErr)
}

// upload stores one campaign (idempotent) and returns its id.
func (lg *loadgen) upload(start int, body []byte) (string, error) {
	status, data, _, err := lg.do(start, "POST", "/v1/campaigns", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("upload status %d: %s", status, data)
	}
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &cr); err != nil || cr.ID == "" {
		return "", fmt.Errorf("upload response %s: %v", data, err)
	}
	return cr.ID, nil
}

// summary is the one-line JSON report on stdout.
type summary struct {
	Requests  int            `json:"requests"`
	Failures  int            `json:"failures"`
	Retries   int64          `json:"retries"`
	DurationS float64        `json:"duration_s"`
	RPS       float64        `json:"rps"`
	P50Ms     float64        `json:"p50_ms"`
	P99Ms     float64        `json:"p99_ms"`
	Metrics   *metricsReport `json:"metrics,omitempty"`
	Errors    []string       `json:"errors,omitempty"`
}

// metricsGate configures the post-run telemetry cross-check.
type metricsGate struct {
	enabled   bool
	tolerance float64 // fractional headroom over the client p99
}

// metricsReport is the cross-check's slice of the summary: the fleet's
// self-reported p99 (max over targets and routes) next to the client's.
type metricsReport struct {
	ServerP99Ms float64 `json:"server_p99_ms"`
	ClientP99Ms float64 `json:"client_p99_ms"`
	Targets     int     `json:"targets"`
}

// load runs the mixed workload and returns the process exit status.
func (lg *loadgen) load(bodies [][]byte, ids []string, conc, requests int, duration, p99Budget time.Duration, mc metricsGate) int {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      []string
		issued    atomic.Int64
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(duration)
	next := func() (int, bool) {
		n := int(issued.Add(1))
		if requests > 0 {
			return n, n <= requests
		}
		return n, time.Now().Before(deadline)
	}
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n, ok := next()
				if !ok {
					return
				}
				i := n % len(bodies)
				var (
					status int
					data   []byte
					d      time.Duration
					err    error
				)
				switch n % 3 {
				case 0:
					status, data, d, err = lg.do(n, "POST", "/v1/campaigns", bodies[i])
				case 1:
					status, data, d, err = lg.do(n, "POST", "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, ids[i])))
				default:
					status, data, d, err = lg.do(n, "GET", "/v1/predict?id="+ids[i]+"&cores=4,16,64&quantile=0.5", nil)
				}
				// 422 is a deterministic fit verdict, not a failure; a 404
				// for an acked id is a lost write and exactly what the
				// chaos gate exists to catch.
				if err == nil && status != http.StatusOK && status != http.StatusUnprocessableEntity {
					err = fmt.Errorf("op %d: status %d: %s", n, status, data)
				}
				mu.Lock()
				latencies = append(latencies, d)
				if err != nil && len(errs) < 20 {
					errs = append(errs, err.Error())
				} else if err != nil {
					errs = append(errs, "") // counted, not printed
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	quantile := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / 1e6
	}
	s := summary{
		Requests:  len(latencies),
		Failures:  len(errs),
		Retries:   lg.retried.Load(),
		DurationS: elapsed.Seconds(),
		RPS:       float64(len(latencies)) / elapsed.Seconds(),
		P50Ms:     quantile(0.50),
		P99Ms:     quantile(0.99),
	}
	for _, e := range errs {
		if e != "" {
			s.Errors = append(s.Errors, e)
		}
	}
	metricsErr := error(nil)
	if mc.enabled {
		s.Metrics, metricsErr = lg.crossCheckMetrics(s.P99Ms, mc.tolerance)
	}
	out, _ := json.MarshalIndent(s, "", "  ")
	fmt.Println(string(out))
	if s.Failures > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d of %d requests failed after retries\n", s.Failures, s.Requests)
		return 1
	}
	if p99Budget > 0 && s.P99Ms > float64(p99Budget)/1e6 {
		fmt.Fprintf(os.Stderr, "loadgen: p99 %.1fms exceeds the %s budget\n", s.P99Ms, p99Budget)
		return 1
	}
	if metricsErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: metrics check: %v\n", metricsErr)
		return 1
	}
	return 0
}

// metricFamilies is the telemetry contract -metrics-check enforces:
// every family the issue's observability layer promises must be
// present on every replica's scrape (registered families render even
// before their first observation, so presence is unconditional).
var metricFamilies = []string{
	"lvserve_requests_total",
	"lvserve_request_latency_seconds",
	"lvserve_request_latency_quantile_seconds",
	"lvserve_peer_requests_total",
	"lvserve_peer_latency_seconds",
	"lvserve_peer_breaker_transitions_total",
	"lvserve_hints_enqueued_total",
	"lvserve_hints_delivered_total",
	"lvserve_hints_queue_depth",
	"lvserve_anti_entropy_round_seconds",
	"lvserve_anti_entropy_pulled_total",
	"lvserve_fit_computes_total",
	"lvserve_quorum_shortfall_total",
	"lvserve_store_campaigns",
	"lvserve_inflight_requests",
}

// crossCheckMetrics scrapes every target and gates the fleet's
// self-measured latency against the client's. The server quantile is
// handler time only while the client's p99 includes network, rotating
// retries and backoff, so only one direction can be asserted: the
// server's p99 must be positive (the sketches really observed this
// run) and at most clientP99·(1+tolerance) plus a 250ms floor that
// keeps sub-millisecond runs from failing on noise.
func (lg *loadgen) crossCheckMetrics(clientP99Ms, tolerance float64) (*metricsReport, error) {
	serverP99 := 0.0
	for _, target := range lg.targets {
		status, data, _, err := lg.directDo(target, "GET", "/v1/metrics", nil)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", target, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("scraping %s: status %d", target, status)
		}
		samples, err := obs.ParseText(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("parsing %s metrics: %w", target, err)
		}
		for _, fam := range metricFamilies {
			if !samples.HasFamily(fam) {
				return nil, fmt.Errorf("%s serves no %s family", target, fam)
			}
		}
		if p99, ok := samples.MaxLabeled("lvserve_request_latency_quantile_seconds", `quantile="0.99"`); ok && p99*1000 > serverP99 {
			serverP99 = p99 * 1000
		}
	}
	rep := &metricsReport{ServerP99Ms: serverP99, ClientP99Ms: clientP99Ms, Targets: len(lg.targets)}
	if serverP99 <= 0 {
		return rep, fmt.Errorf("no target reports a positive request p99 — the latency sketches never observed the run")
	}
	if budget := clientP99Ms*(1+tolerance) + 250; serverP99 > budget {
		return rep, fmt.Errorf("server-side p99 %.1fms exceeds the client-observed %.1fms by more than the tolerance (budget %.1fms)",
			serverP99, clientP99Ms, budget)
	}
	return rep, nil
}

// verify checks post-chaos convergence: every campaign re-uploads to
// its stable id, every target answers every id's fit and predict with
// the same status and the same bytes, and every target's hint queue
// drains within the timeout.
func (lg *loadgen) verify(bodies [][]byte, ids []string, convergeTO time.Duration) int {
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: verify: "+format+"\n", args...)
		failed = true
	}

	// Hint queues must drain: an undelivered replication write means
	// the group has not converged.
	deadline := time.Now().Add(convergeTO)
	for {
		st, err := lg.groupStats()
		if err != nil {
			fail("%v", err)
			break
		}
		if st.hints == 0 {
			break
		}
		if time.Now().After(deadline) {
			fail("hint queues still hold %d entries after %s", st.hints, convergeTO)
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	for i, id := range ids {
		// Idempotent re-upload: the id is a content hash, so any other
		// answer means data was lost or mangled.
		rid, err := lg.upload(i, bodies[i])
		if err != nil {
			fail("re-upload campaign %d: %v", i, err)
			continue
		}
		if rid != id {
			fail("campaign %d re-uploaded to id %s, want %s", i, rid, id)
		}
		for _, probe := range []struct {
			method, path string
			body         []byte
		}{
			{"POST", "/v1/fit", []byte(fmt.Sprintf(`{"id":%q}`, id))},
			{"GET", "/v1/predict?id=" + id + "&cores=4,16,64&quantile=0.5", nil},
		} {
			var first []byte
			firstStatus := 0
			for ti, target := range lg.targets {
				status, data, _, err := lg.directDo(target, probe.method, probe.path, probe.body)
				if err != nil {
					fail("%s %s via %s: %v", probe.method, probe.path, target, err)
					continue
				}
				if status != http.StatusOK && status != http.StatusUnprocessableEntity {
					fail("%s %s via %s: status %d: %s", probe.method, probe.path, target, status, data)
					continue
				}
				if ti == 0 {
					first, firstStatus = data, status
				} else if status != firstStatus || !bytes.Equal(data, first) {
					fail("%s %s: %s answers differently from %s", probe.method, probe.path, target, lg.targets[0])
				}
			}
		}
	}
	if failed {
		return 1
	}
	fmt.Printf(`{"verified_campaigns": %d, "targets": %d, "converged": true}`+"\n", len(ids), len(lg.targets))
	return 0
}

// directDo sends one request to one specific target, no failover —
// verification is about what each replica itself answers.
func (lg *loadgen) directDo(target, method, path string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lg.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, time.Since(t0), err
}

// groupStats aggregates the group's healthz view: total hinted-handoff
// backlog, total resident campaign copies, and total anti-entropy
// pulls across all targets.
type groupStats struct {
	hints     int
	campaigns int
	aePulled  int64
}

func (lg *loadgen) groupStats() (groupStats, error) {
	var st groupStats
	for _, target := range lg.targets {
		status, data, _, err := lg.directDo(target, "GET", "/v1/healthz", nil)
		if err != nil {
			return st, fmt.Errorf("healthz via %s: %w", target, err)
		}
		if status != http.StatusOK {
			return st, fmt.Errorf("healthz via %s: status %d", target, status)
		}
		var hr struct {
			Hints       int `json:"hints"`
			Campaigns   int `json:"campaigns"`
			AntiEntropy *struct {
				Pulled int64 `json:"pulled"`
			} `json:"anti_entropy"`
		}
		if err := json.Unmarshal(data, &hr); err != nil {
			return st, fmt.Errorf("healthz via %s: %w", target, err)
		}
		st.hints += hr.Hints
		st.campaigns += hr.Campaigns
		if hr.AntiEntropy != nil {
			st.aePulled += hr.AntiEntropy.Pulled
		}
	}
	return st, nil
}

// waitConverged polls healthz — and only healthz — until every hint
// queue is empty and (when expectCopies > 0) the group holds exactly
// that many campaign copies, then reports how the group got there.
// Issuing no campaign traffic is the point: read-repair never fires,
// so convergence observed here was manufactured by hinted handoff and
// the anti-entropy exchanger alone.
func (lg *loadgen) waitConverged(expectCopies int, convergeTO time.Duration) int {
	deadline := time.Now().Add(convergeTO)
	var st groupStats
	for {
		var err error
		st, err = lg.groupStats()
		if err == nil && st.hints == 0 && (expectCopies == 0 || st.campaigns == expectCopies) {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: wait-converged: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr,
					"loadgen: wait-converged: %d hints pending, %d/%d copies after %s\n",
					st.hints, st.campaigns, expectCopies, convergeTO)
			}
			return 1
		}
		time.Sleep(200 * time.Millisecond)
	}
	out, _ := json.Marshal(struct {
		Converged bool  `json:"converged"`
		Copies    int   `json:"copies"`
		AEPulled  int64 `json:"anti_entropy_pulled"`
		Targets   int   `json:"targets"`
	}{true, st.campaigns, st.aePulled, len(lg.targets)})
	fmt.Println(string(out))
	return 0
}
