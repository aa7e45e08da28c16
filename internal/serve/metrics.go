package serve

// The daemon's own telemetry: every metric family the fleet exposes
// at GET /v1/metrics, wired once at Server construction.
//
// The latency families dogfood internal/sketch — each route's (and
// each peer endpoint's) latency is folded into the same mergeable
// quantile sketch the daemon sells to its users, so the fleet
// measures its own runtime distribution with the machinery the paper
// is about: /v1/metrics reports exact-until-compaction p50/p90/p99
// next to conventional cumulative buckets, instead of the pre-binned
// approximations a fixed-bucket histogram would give. Healthz remains
// the liveness/JSON view; /v1/metrics is the scrapeable one.

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"lasvegas/internal/obs"
)

// metrics is the Server's registered metric set.
type metrics struct {
	reg *obs.Registry

	// requests/reqLatency cover every public and internal endpoint by
	// route and status class — the per-endpoint request/error/latency
	// triple.
	requests   *obs.CounterVec   // route, status (2xx..5xx)
	reqLatency *obs.HistogramVec // route

	// Peer RPCs, by endpoint and outcome; latency is the client-visible
	// cost of the whole call including retries and backoff.
	peerRequests *obs.CounterVec   // endpoint, outcome (ok | error)
	peerLatency  *obs.HistogramVec // endpoint

	// breakerTransitions counts per-peer circuit state changes — the
	// "how often does the group think a replica is dead" signal.
	breakerTransitions *obs.CounterVec // peer, to (open | half-open | closed)

	// Hinted handoff: enqueues (a peer missed a write) and deliveries
	// (the drain rate); the queue depth itself is a gauge.
	hintsEnqueued  *obs.Counter
	hintsDelivered *obs.Counter

	// Anti-entropy: digest-exchange round duration and pulled copies.
	aeRounds *obs.HistogramVec // (no labels)
	aePulled *obs.Counter

	// Campaign fits on this replica, from /v1/fit, /v1/predict and
	// /v1/policy alike: computed (this call ran the fit), cached
	// (served the entry's finished fit), or error (the fit failed,
	// fresh or cached).
	fitComputes *obs.CounterVec // event (computed | cached | error)

	// Quorum shortfalls answered 503.
	quorumShortfall *obs.CounterVec // kind (read | write)

	// Restart-policy table computes on /v1/policy: computed (this
	// request priced the table), cached (served the entry's cell), or
	// error.
	policyComputes *obs.CounterVec // event (computed | cached | error)
}

// newMetrics registers every family on a fresh registry.
func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg: reg,
		requests: reg.Counter("lvserve_requests_total",
			"Requests served, by route and status class.", "route", "status"),
		reqLatency: reg.Histogram("lvserve_request_latency_seconds",
			"lvserve_request_latency_quantile_seconds",
			"Request latency by route, folded into a quantile sketch (exact p50/p90/p99 until compaction).",
			"route"),
		peerRequests: reg.Counter("lvserve_peer_requests_total",
			"Peer RPCs, by endpoint and outcome (retries included in one call).", "endpoint", "outcome"),
		peerLatency: reg.Histogram("lvserve_peer_latency_seconds",
			"lvserve_peer_latency_quantile_seconds",
			"Peer RPC latency by endpoint, retries and backoff included, sketch-backed.", "endpoint"),
		breakerTransitions: reg.Counter("lvserve_peer_breaker_transitions_total",
			"Per-peer circuit-breaker state transitions.", "peer", "to"),
		hintsEnqueued: reg.Counter("lvserve_hints_enqueued_total",
			"Replicated writes journaled for a down peer.").With(),
		hintsDelivered: reg.Counter("lvserve_hints_delivered_total",
			"Journaled writes redelivered to a returned peer.").With(),
		aeRounds: reg.Histogram("lvserve_anti_entropy_round_seconds",
			"lvserve_anti_entropy_round_quantile_seconds",
			"Anti-entropy digest-exchange round duration, sketch-backed."),
		aePulled: reg.Counter("lvserve_anti_entropy_pulled_total",
			"Campaign copies pulled from peers by anti-entropy.").With(),
		fitComputes: reg.Counter("lvserve_fit_computes_total",
			"Campaign fits on this replica, by outcome.", "event"),
		quorumShortfall: reg.Counter("lvserve_quorum_shortfall_total",
			"Reads or writes refused (503) for lack of a quorum.", "kind"),
		policyComputes: reg.Counter("lvserve_policy_computes_total",
			"Restart-policy table computes on /v1/policy, by outcome.", "event"),
	}
}

// registerGauges wires the scrape-time gauges that read live server
// state; called once the store and hint journal exist.
func (s *Server) registerGauges() {
	s.met.reg.GaugeFunc("lvserve_store_campaigns",
		"Resident campaigns in this replica's store.",
		func() float64 { return float64(s.store.Len()) })
	s.met.reg.GaugeFunc("lvserve_store_bytes",
		"Stored canonical-campaign volume (snapshot-log size for durable stores).",
		func() float64 { return float64(s.store.Stats().Bytes) })
	s.met.reg.GaugeFunc("lvserve_hints_queue_depth",
		"Hinted-handoff writes awaiting redelivery.",
		func() float64 { return float64(s.hints.Depth()) })
	s.met.reg.GaugeFunc("lvserve_inflight_requests",
		"Requests currently inside the handler.",
		func() float64 { return float64(s.inflight.Load()) })
}

// routeLabel maps a request path onto the closed route-label set —
// exactly the mux's patterns, with everything else pooled under
// "other" so request paths can never explode metric cardinality.
func routeLabel(path string) string {
	switch path {
	case "/v1/campaigns", "/v1/fit", "/v1/predict", "/v1/policy", "/v1/healthz",
		"/v1/metrics", "/v1/internal/campaign", "/v1/internal/digest":
		return path
	}
	return "other"
}

// statusClass buckets an HTTP status for the requests counter.
func statusClass(status int) string {
	if status < 100 || status > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", status/100)
}

// peerEndpoint strips the query from a peer-call URI, yielding the
// closed endpoint-label set for the peer metrics.
func peerEndpoint(uri string) string {
	if i := strings.IndexByte(uri, '?'); i >= 0 {
		uri = uri[:i]
	}
	return uri
}

// handleMetrics serves the Prometheus text exposition. The render is
// deterministic for fixed state, but unlike fit/predict responses it
// is a live snapshot — no byte-stability contract applies.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WriteText(w)
}

// observeRequest records one served request: the counter by route and
// status class, the latency sketch by route.
func (m *metrics) observeRequest(route string, status int, d time.Duration) {
	m.requests.With(route, statusClass(status)).Inc()
	m.reqLatency.With(route).Observe(d.Seconds())
}
