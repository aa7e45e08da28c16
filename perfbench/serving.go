package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"lasvegas"
	"lasvegas/internal/obs"
	"lasvegas/internal/store"
	"lasvegas/internal/xrand"
)

type servingKind int

const (
	coldKind  servingKind = iota // every op a fresh campaign, cold fit and policy
	mixedKind                    // cached reads beside fresh uploads
)

// Input spaces: each draws its own campaigns from the seed, so warm-up,
// working set and timed uploads never collide.
const (
	spaceColdWarm uint64 = iota + 1
	spaceCold
	spaceWorking
	spaceFresh
)

const (
	coldWarmup   = 12 // untimed cold ops per set-up trial
	workingSet   = 32 // serve-mixed campaigns whose reads are cached
	mixedWarmup  = 8  // untimed serve-mixed ops per set-up trial
	mixedBatch   = 40 // requests in one serve-mixed op (see mixedOp)
	replaySetLen = 24 // campaigns fed to the layer replay: every law × coldMix shape once
)

// predictQuery is the read every predict op sends.
const predictQuery = "&cores=16,64,256&quantile=0.5"

// serving drives an in-process lvserve group.
type serving struct {
	kind    servingKind
	seed    uint64
	root    string
	f       *fleet
	gauge   connGauge
	sent    routeSent
	clients []*client

	idsMu sync.Mutex
	ids   map[string]bool // every campaign id uploaded since boot

	ws []workingEntry // serve-mixed

	// Per-phase state, reset by begin.
	before     []obs.Samples
	sentBefore map[string]int64
	forwarded  atomic.Int64
	routed     atomic.Int64
}

// workingEntry is one serve-mixed campaign with the bodies every cached
// read must reproduce byte for byte.
type workingEntry struct {
	up                   upload
	fit, predict, policy answer
}

// answer is a recorded status and body.
type answer struct {
	status int
	body   []byte
}

// upload is one campaign body and the id the daemon must answer with.
type upload struct {
	id    string
	body  []byte
	ctype string
	route string // client route class
	c     *lasvegas.Campaign
}

func (s *serving) callers() int { return runtime.NumCPU() }

// footprintOps is under a third of what a 20-second phase completes,
// so a run at half the usual speed still reaches it.
func (s *serving) footprintOps() int64 {
	if s.kind == coldKind {
		return 200
	}
	return 300
}

func (s *serving) setup(ctx context.Context, e *env) (int64, error) {
	s.seed = e.o.seed
	s.root = e.o.root
	s.ids = map[string]bool{}
	s.sent.n = map[string]int64{}
	f, err := bootFleet(e.dir)
	if err != nil {
		return 0, fmt.Errorf("boot group: %w", err)
	}
	s.f = f
	for i := 0; i < s.callers(); i++ {
		s.clients = append(s.clients, newClient(f.urls, &s.gauge, &s.sent))
	}
	if s.kind == coldKind {
		return s.setupCold(ctx, e.rep)
	}
	return s.setupMixed(ctx, e.rep)
}

// setupCold uploads the committed Costas fixture, checks its policy
// body against the golden on every replica, and warms the group with
// untimed cold ops.
func (s *serving) setupCold(ctx context.Context, rep *report) (int64, error) {
	fixture, err := os.ReadFile(filepath.Join(s.root, "testdata", "campaign_costas13.json"))
	if err != nil {
		return 0, err
	}
	golden, err := os.ReadFile(filepath.Join(s.root, "internal", "serve", "testdata", "policy_response.golden"))
	if err != nil {
		return 0, err
	}
	fc, err := lasvegas.ReadCampaign(bytes.NewReader(fixture))
	if err != nil {
		return 0, fmt.Errorf("fixture: %w", err)
	}
	want, err := store.CampaignID(fc)
	if err != nil {
		return 0, err
	}
	cl := s.clients[0]
	if err := s.sendUpload(ctx, cl, 0, upload{id: want, body: fixture, ctype: "application/json", route: "upload_json"}, nil, span{}); err != nil {
		rep.problem("fixture upload: %v", err)
	}
	for r := range s.f.urls {
		status, body, err := cl.do(ctx, r, "GET", "/v1/policy?id="+want, "", nil)
		switch {
		case err != nil:
			rep.problem("fixture policy on replica %d: %v", r, err)
		case status != http.StatusOK || !bytes.Equal(body, golden):
			rep.problem("fixture policy on replica %d: status %d, body differs from policy_response.golden", r, status)
		}
	}
	for i := 1; i <= coldWarmup; i++ {
		if err := s.coldOp(ctx, cl, -int64(i), spaceColdWarm, nil, span{}); err != nil {
			rep.problem("serve-cold warm-up %d: %v", i, err)
		}
	}
	return coldWarmup, nil
}

// setupMixed uploads the working set, reads every campaign's fit,
// predict and policy from every replica so each owner holds them
// cached, records the bodies (which must agree across replicas), and
// warms the group with untimed mixed ops.
func (s *serving) setupMixed(ctx context.Context, rep *report) (int64, error) {
	cl := s.clients[0]
	for j := 0; j < workingSet; j++ {
		up, err := encodeUpload(genCampaign(s.seed, spaceWorking, int64(j), 200), j%4 == 3)
		if err != nil {
			return 0, err
		}
		if err := s.sendUpload(ctx, cl, j%fleetReplicas, up, nil, span{}); err != nil {
			rep.problem("working-set upload %d: %v", j, err)
		}
		s.ws = append(s.ws, workingEntry{up: up})
	}
	for j := range s.ws {
		w := &s.ws[j]
		id := w.up.id
		for r := range s.f.urls {
			reads := []struct {
				method, path string
				body         []byte
				dst          *answer
			}{
				{"POST", "/v1/fit", fitBody(id), &w.fit},
				{"GET", "/v1/predict?id=" + id + predictQuery, nil, &w.predict},
				{"GET", "/v1/policy?id=" + id, nil, &w.policy},
			}
			for _, rd := range reads {
				status, body, err := cl.do(ctx, r, rd.method, rd.path, "application/json", rd.body)
				// A campaign no family fits answers 422 on fit and
				// predict; the daemon caches that answer like any other.
				switch {
				case err != nil:
					return 0, err
				case status != http.StatusOK && (status != http.StatusUnprocessableEntity || rd.dst == &w.policy):
					rep.problem("working set %d %s on replica %d: status %d: %s", j, rd.path, r, status, body)
				case rd.dst.body == nil:
					*rd.dst = answer{status, body}
				case rd.dst.status != status || !bytes.Equal(rd.dst.body, body):
					rep.problem("working set %d %s: replica %d answers differently", j, rd.path, r)
				}
			}
		}
		if err := checkPolicyBody(w.policy.body); err != nil {
			rep.problem("working set %d: %v", j, err)
		}
	}
	for i := 1; i <= mixedWarmup; i++ {
		if err := s.mixedOp(ctx, cl, -int64(i), nil, span{}); err != nil {
			rep.problem("serve-mixed warm-up %d: %v", i, err)
		}
	}
	return mixedWarmup, nil
}

func (s *serving) op(ctx context.Context, c int, k int64, tr *tracer, parent span) error {
	if s.kind == coldKind {
		return s.coldOp(ctx, s.clients[c], k, spaceCold, tr, parent)
	}
	return s.mixedOp(ctx, s.clients[c], k, tr, parent)
}

// coldOp uploads fresh campaign k round-robin and reads its fit,
// prediction and policy table, all computed cold. Laws rotate
// exponential, lognormal, shifted exponential; sizes and formats follow
// coldMix.
func (s *serving) coldOp(ctx context.Context, cl *client, k int64, space uint64, tr *tracer, parent span) error {
	runs, ndjson := coldMix(k)
	up, err := encodeUpload(genCampaign(s.seed, space, k, runs), ndjson)
	if err != nil {
		return err
	}
	r := int(mod(k, fleetReplicas))
	s.countRouting(up.id, r, 4)
	if err := s.sendUpload(ctx, cl, r, up, tr, parent); err != nil {
		return err
	}
	status, body, err := s.call(ctx, cl, r, "POST", "/v1/fit", fitBody(up.id), "fit_cold", tr, parent)
	if err != nil {
		return err
	}
	fitted := status == http.StatusOK
	switch {
	case fitted:
		if err := checkFitBody(body, up.id); err != nil {
			return err
		}
	case status != http.StatusUnprocessableEntity: // no family accepted is an answer
		return fmt.Errorf("fit %s: status %d: %s", up.id, status, body)
	}
	status, body, err = s.call(ctx, cl, r, "GET", "/v1/predict?id="+up.id+predictQuery, nil, "predict", tr, parent)
	if err != nil {
		return err
	}
	want := http.StatusUnprocessableEntity
	if fitted {
		want = http.StatusOK
	}
	if status != want {
		return fmt.Errorf("predict %s: status %d, want %d as for its fit: %s", up.id, status, want, body)
	}
	if fitted {
		if err := checkPredictBody(body); err != nil {
			return fmt.Errorf("predict %s: %w", up.id, err)
		}
	}
	status, body, err = s.call(ctx, cl, r, "GET", "/v1/policy?id="+up.id, nil, "policy_cold", tr, parent)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("policy %s: status %d: %s", up.id, status, body)
	}
	return checkPolicyBody(body)
}

// mixedOp sends one serve-mixed batch of 40 requests to replica
// k mod 3. Per batch: 4 fresh uploads, one request in ten, each an
// fsync'd, replicated write; 8 idempotent re-uploads of working-set
// campaigns; 9 cached fits, 9 predicts and 9 cached policy tables;
// and 1 /v1/metrics scrape. The requests go one after another, and
// working-set campaigns are drawn from the seed. Every op carries the
// same mix, so op latency measures the mix instead of which request
// drew the slot.
func (s *serving) mixedOp(ctx context.Context, cl *client, k int64, tr *tracer, parent span) error {
	r := int(mod(k, fleetReplicas))
	for i := 0; i < mixedBatch; i++ {
		if err := s.mixedRequest(ctx, cl, r, k, i, tr, parent); err != nil {
			return err
		}
	}
	return nil
}

// mixedRequest sends request i of serve-mixed op k. Each group of ten
// slots holds a fresh upload, two re-uploads, two each of fit, predict
// and policy, and a last slot that is a fit, predict, policy or
// metrics scrape in turn across the four groups.
func (s *serving) mixedRequest(ctx context.Context, cl *client, r int, k int64, i int, tr *tracer, parent span) error {
	w := &s.ws[mix(s.seed^0x5EED, uint64(k*mixedBatch+int64(i)))%uint64(len(s.ws))]
	slot := i % 10
	if slot == 9 {
		slot = 3 + 2*(i/10) // 3 fit, 5 predict, 7 policy, 9 metrics
	}
	var (
		route, method, path string
		body                []byte
		want                answer
	)
	switch slot {
	case 0:
		up, err := encodeUpload(genCampaign(s.seed, spaceFresh, k*mixedBatch+int64(i), 200), false)
		if err != nil {
			return err
		}
		s.countRouting(up.id, r, 1)
		return s.sendUpload(ctx, cl, r, up, tr, parent)
	case 1, 2:
		re := w.up
		re.route = "reupload"
		s.countRouting(re.id, r, 1)
		return s.sendUpload(ctx, cl, r, re, tr, parent)
	case 3, 4:
		route, method, path, body, want = "fit_cached", "POST", "/v1/fit", fitBody(w.up.id), w.fit
	case 5, 6:
		route, method, path, want = "predict", "GET", "/v1/predict?id="+w.up.id+predictQuery, w.predict
	case 7, 8:
		route, method, path, want = "policy_cached", "GET", "/v1/policy?id="+w.up.id, w.policy
	default:
		status, data, err := s.call(ctx, cl, r, "GET", "/v1/metrics", nil, "metrics", tr, parent)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("metrics: status %d", status)
		}
		if _, err := obs.ParseText(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		return nil
	}
	s.countRouting(w.up.id, r, 1)
	status, data, err := s.call(ctx, cl, r, method, path, body, route, tr, parent)
	if err != nil {
		return err
	}
	if status != want.status || !bytes.Equal(data, want.body) {
		return fmt.Errorf("%s %s on replica %d: status %d, body differs from the cached answer", method, path, r, status)
	}
	return nil
}

// call sends one request inside a client span named after its route
// class.
func (s *serving) call(ctx context.Context, cl *client, r int, method, path string, body []byte, route string, tr *tracer, parent span) (int, []byte, error) {
	ctype := ""
	if body != nil {
		ctype = "application/json"
	}
	return s.callType(ctx, cl, r, method, path, ctype, body, route, tr, parent)
}

func (s *serving) callType(ctx context.Context, cl *client, r int, method, path, ctype string, body []byte, route string, tr *tracer, parent span) (int, []byte, error) {
	sp := tr.start("http "+route, parent.Op, parent.ID)
	status, data, err := cl.do(ctx, r, method, path, ctype, body)
	tr.end(sp)
	return status, data, err
}

// sendUpload posts a campaign and checks the returned id.
func (s *serving) sendUpload(ctx context.Context, cl *client, r int, up upload, tr *tracer, parent span) error {
	status, data, err := s.callType(ctx, cl, r, "POST", "/v1/campaigns", up.ctype, up.body, up.route, tr, parent)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("upload: status %d: %s", status, data)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("upload response: %w", err)
	}
	if resp.ID != up.id {
		return fmt.Errorf("upload answered id %s, want %s (store.CampaignID of the bytes sent)", resp.ID, up.id)
	}
	s.idsMu.Lock()
	s.ids[up.id] = true
	s.idsMu.Unlock()
	return nil
}

// countRouting tallies requests that land on a replica outside the
// id's preference list and so are forwarded.
func (s *serving) countRouting(id string, r int, requests int64) {
	s.routed.Add(requests)
	for _, o := range store.Owners(id, fleetReplicas, fleetK) {
		if o == r {
			return
		}
	}
	s.forwarded.Add(requests)
}

// publicRoutes are the routes the benchmark calls; the daemon's own
// peer traffic to them is subtracted before comparing with what the
// benchmark sent.
var publicRoutes = []string{"/v1/campaigns", "/v1/fit", "/v1/predict", "/v1/policy", "/v1/metrics"}

func (s *serving) scrapeAll(ctx context.Context) ([]obs.Samples, error) {
	out := make([]obs.Samples, len(s.f.urls))
	for r := range s.f.urls {
		var err error
		if out[r], err = s.clients[0].scrape(ctx, r); err != nil {
			return nil, fmt.Errorf("scrape replica %d: %w", r, err)
		}
	}
	return out, nil
}

func (s *serving) begin(ctx context.Context) error {
	s.forwarded.Store(0)
	s.routed.Store(0)
	s.sentBefore = s.sent.snapshot() // the scrapes below count inside the window
	var err error
	s.before, err = s.scrapeAll(ctx)
	return err
}

func (s *serving) end(ctx context.Context, ph *phase, rep *report, layers bool) error {
	sentAfter := s.sent.snapshot()
	after, err := s.scrapeAll(ctx)
	if err != nil {
		return err
	}
	delta := func(f func(obs.Samples) float64) float64 {
		var d float64
		for r := range after {
			d += f(after[r]) - f(s.before[r])
		}
		return d
	}
	total := func(f func(obs.Samples) float64) float64 {
		var t float64
		for _, a := range after {
			t += f(a)
		}
		return t
	}

	// Health guards.
	if h := total(func(x obs.Samples) float64 { return gauge(x, "lvserve_hints_enqueued_total") }); h != 0 {
		rep.problem("health: %v hints enqueued in a healthy group", h)
	}
	s.idsMu.Lock()
	wantCopies := float64(fleetK * len(s.ids))
	s.idsMu.Unlock()
	if got := total(func(x obs.Samples) float64 { return gauge(x, "lvserve_store_campaigns") }); got != wantCopies {
		rep.problem("health: group holds %v campaign copies, want %v (k=%d × %d uploaded): evicted or lost", got, wantCopies, fleetK, int(wantCopies)/fleetK)
	}
	for _, route := range publicRoutes {
		served := delta(func(x obs.Samples) float64 { return requestsFor(x, route) - peerRPCs(x, route) })
		if sent := float64(sentAfter[route] - s.sentBefore[route]); served != sent {
			rep.problem("health: %s: lvserve_requests_total delta minus peer RPCs is %v, benchmark sent %v", route, served, sent)
		}
	}
	if p := s.gauge.peak.Load(); p > int64(s.callers()) {
		rep.problem("health: %d client connections open at once, limit %d", p, s.callers())
	}
	computed := delta(func(x obs.Samples) float64 { return eventCount(x, "lvserve_policy_computes_total", "computed") })
	cached := delta(func(x obs.Samples) float64 { return eventCount(x, "lvserve_policy_computes_total", "cached") })
	shares := map[string]float64{}
	var shareTotal float64
	for _, e := range fitShareEvents {
		shares[e] = delta(func(x obs.Samples) float64 { return eventCount(x, "lvserve_fit_share_total", e) })
		shareTotal += shares[e]
	}
	if s.kind == mixedKind {
		if computed != 0 {
			rep.problem("health: serve-mixed reads computed %v policy tables, want 0", computed)
		}
		if n := shares["local"] + shares["delegated"]; n != 0 {
			rep.problem("health: serve-mixed reads started %v fits, want 0", n)
		}
	}
	if !layers {
		return nil
	}

	ops := float64(max(ph.ops, 1))
	busiest, busiestN := "", -1.0
	for _, e := range peerEndpoints {
		n := delta(func(x obs.Samples) float64 { return peerRPCs(x, e.path) })
		rep.set("peer."+e.name+"_rpcs_per_op", n/ops)
		if n > busiestN {
			busiest, busiestN = e.path, n
		}
	}
	rep.set("peer.latency_p50_ms", meanOver(after, fmt.Sprintf(`lvserve_peer_latency_quantile_seconds{endpoint=%q,quantile="0.5"}`, busiest))*1e3)
	for _, e := range fitShareEvents {
		if shareTotal > 0 {
			rep.set("fitshare."+e+"_share", shares[e]/shareTotal)
		}
	}
	if computed+cached > 0 {
		rep.set("policy.cached_ratio", cached/(computed+cached))
	}
	rep.set("policy.computes_per_op", computed/ops)
	rep.set("antientropy.rounds", delta(func(x obs.Samples) float64 { return gauge(x, "lvserve_anti_entropy_round_seconds_count") }))
	rep.set("antientropy.round_ms", meanOver(after, `lvserve_anti_entropy_round_quantile_seconds{quantile="0.5"}`)*1e3)
	rep.set("obs.scrape_ms", meanOver(after, `lvserve_request_latency_quantile_seconds{route="/v1/metrics",quantile="0.5"}`)*1e3)
	if n := s.routed.Load(); n > 0 {
		rep.set("serve.forwarded_share", float64(s.forwarded.Load())/float64(n))
	}
	return nil
}

// meanOver averages one series over the replicas that report it.
func meanOver(samples []obs.Samples, series string) float64 {
	var sum float64
	var n int
	for _, x := range samples {
		if v, ok := x.Get(series); ok && !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// spanMetrics reports each route class's client latency and its self
// time: the route's mean latency minus the mean of the layer calls the
// replay timed for the same campaign mix. Means, unlike medians,
// subtract across a mix of campaign sizes and formats.
func (s *serving) spanMetrics(spans []span, layer layerCosts, rep *report) {
	write := layer.encode + fleetK*layer.add
	layerMs := map[string]float64{
		"upload_json":   write,
		"upload_ndjson": write,
		"reupload":      layer.encode + fleetK*layer.dedup,
		"fit_cold":      layer.fitAll,
		"predict":       layer.curve,
		"policy_cold":   layer.table,
	}
	ops := opSpans(spans)
	for _, route := range serveRoutes {
		d := durations(ops, "http "+route)
		if len(d) == 0 {
			continue
		}
		rep.set("serve."+route+"_p50_ms", quantile(d, 0.5))
		rep.set("serve."+route+"_p99_ms", quantile(d, 0.99))
		rep.set("serve."+route+"_self_ms", mean(d)-layerMs[route])
	}
}

// replaySet is the campaigns as the daemon stores them: NDJSON uploads
// as their sketch-backed form.
func (s *serving) replaySet() []*lasvegas.Campaign {
	var out []*lasvegas.Campaign
	if s.kind == mixedKind {
		for _, w := range s.ws {
			out = append(out, w.up.c)
		}
		return out
	}
	for k := int64(0); k < replaySetLen; k++ {
		runs, ndjson := coldMix(k)
		up, err := encodeUpload(genCampaign(s.seed, spaceCold, k, runs), ndjson)
		if err == nil {
			out = append(out, up.c)
		}
	}
	return out
}

func (s *serving) close() error {
	for _, c := range s.clients {
		c.close()
	}
	if s.f == nil {
		return nil
	}
	err := s.f.close()
	s.f = nil
	return err
}

// genCampaign draws campaign k of an input space: runtimes from an
// exponential, lognormal or shifted-exponential law (rotating with
// k), with law parameters drawn per campaign, rounded up to whole
// iterations.
func genCampaign(seed, space uint64, k int64, runs int) *lasvegas.Campaign {
	rng := xrand.New(mix(seed, space)).Split(uint64(k))
	law := mod(k, 3)
	mean := 300 + 700*rng.Float64()
	shift := 100 + 400*rng.Float64()
	sigma := 0.6 + 0.6*rng.Float64()
	c := &lasvegas.Campaign{Runs: runs, Seed: rng.Uint64(), Iterations: make([]float64, runs)}
	c.Problem = [...]string{"synthetic-exponential", "synthetic-lognormal", "synthetic-shifted-exponential"}[law]
	for i := range c.Iterations {
		var x float64
		switch law {
		case 0:
			x = -mean * math.Log(rng.Float64Open())
		case 1:
			z := math.Sqrt(-2*math.Log(rng.Float64Open())) * math.Cos(2*math.Pi*rng.Float64())
			x = math.Exp(math.Log(mean) + sigma*z)
		default:
			x = shift - mean*math.Log(rng.Float64Open())
		}
		c.Iterations[i] = math.Floor(x) + 1
	}
	return c
}

// encodeUpload renders a campaign as an upload body, JSON or an NDJSON
// stream, with the id the daemon must return: store.CampaignID of the
// campaign the bytes decode to.
func encodeUpload(c *lasvegas.Campaign, ndjson bool) (upload, error) {
	if !ndjson {
		id, data, err := store.Encode(c)
		return upload{id: id, body: data, ctype: "application/json", route: "upload_json", c: c}, err
	}
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		return upload{}, err
	}
	decoded, err := lasvegas.ReadCampaignNDJSON(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		return upload{}, err
	}
	id, err := store.CampaignID(decoded)
	return upload{id: id, body: buf.Bytes(), ctype: "application/x-ndjson", route: "upload_ndjson", c: decoded}, err
}

func fitBody(id string) []byte { return []byte(`{"id":"` + id + `"}`) }

func checkFitBody(body []byte, id string) error {
	var resp struct {
		ID         string            `json:"id"`
		Best       json.RawMessage   `json:"best"`
		Candidates []json.RawMessage `json:"candidates"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("fit response: %w", err)
	}
	if resp.ID != id || len(resp.Best) == 0 || string(resp.Best) == "null" || len(resp.Candidates) == 0 {
		return fmt.Errorf("fit response for %s lacks id, best model or candidates", id)
	}
	return nil
}

func checkPredictBody(body []byte) error {
	var resp struct {
		Speedups []struct {
			Cores   int     `json:"cores"`
			Speedup float64 `json:"speedup"`
		} `json:"speedups"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Speedups) != 3 {
		return fmt.Errorf("%d speed-ups, want 3", len(resp.Speedups))
	}
	for _, p := range resp.Speedups {
		// The minimum of n runs is never slower than one run; a
		// heavy-tailed law may legitimately predict super-linear gains.
		if !(p.Speedup >= 1-1e-9) || math.IsInf(p.Speedup, 0) {
			return fmt.Errorf("speed-up %v at %d cores is not finite and at least 1", p.Speedup, p.Cores)
		}
	}
	return nil
}

func checkPolicyBody(body []byte) error {
	var resp struct {
		Winner   string `json:"winner"`
		Policies []struct {
			Policy string `json:"policy"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("policy response: %w", err)
	}
	if len(resp.Policies) != 4 || resp.Winner == "" || resp.Winner != resp.Policies[0].Policy {
		return errors.New("policy response is not four ranked rows with the winner first")
	}
	return nil
}

// coldMix is serve-cold's campaign shape for op k, in a cycle of 8
// ops: half the campaigns have 200 runs and half 650, and one upload
// in four, at either size, is an NDJSON stream.
func coldMix(k int64) (runs int, ndjson bool) {
	c := mod(k, 8)
	runs = 200
	if c >= 4 {
		runs = 650
	}
	return runs, c%4 == 3
}

// mod is the non-negative remainder.
func mod(a, n int64) int64 { return ((a % n) + n) % n }
