package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"lasvegas"
	"lasvegas/internal/obs"
	"lasvegas/internal/store"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the whole replica group
// logs into one stream, the way CI merges per-replica artifacts.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// traceLines counts log lines carrying the exact trace attribute.
func traceLines(logs, trace string) int {
	n := 0
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "trace="+trace) {
			n++
		}
	}
	return n
}

// TestTraceSpansReplicaHops drives one upload through a non-owner of
// a 3-replica k=2 group and asserts a single trace ID ties the whole
// fan-out together: the ingress access log, the forwarded upload on
// the first owner, and the replication write on the second owner all
// log the same ID, which also comes back on the response header. A
// forwarded /v1/fit then proves a caller-supplied ID is honored, not
// replaced.
func TestTraceSpansReplicaHops(t *testing.T) {
	logs := &syncBuffer{}
	g := newGroup(t, 3, 2, Config{
		AntiEntropyInterval: -1, // only client-driven traffic in the logs
		Logger:              slog.New(slog.NewTextHandler(logs, nil)),
	})

	body, err := json.Marshal(&lasvegas.Campaign{
		Problem:    "trace-e2e",
		Runs:       4,
		Seed:       1,
		Iterations: []float64{10, 20, 30, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	var c lasvegas.Campaign
	if err := json.Unmarshal(body, &c); err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Encode(&c)
	if err != nil {
		t.Fatal(err)
	}
	owners := store.Owners(id, 3, 2)
	nonOwner := -1
	for i := 0; i < 3; i++ {
		if !ownedBy(owners, i) {
			nonOwner = i
			break
		}
	}
	if nonOwner == -1 {
		t.Fatalf("owners %v cover all 3 replicas at k=2", owners)
	}

	// Upload through the non-owner: forward to owners[0], which fans
	// the write out to owners[1] — three handlers, one trace.
	resp, err := http.Post(g.url(nonOwner)+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload via non-owner: status %d", resp.StatusCode)
	}
	trace := resp.Header.Get(obs.TraceHeader)
	if len(trace) != 16 {
		t.Fatalf("response %s = %q, want a generated 16-hex-char trace ID", obs.TraceHeader, trace)
	}
	if got := traceLines(logs.String(), trace); got < 3 {
		t.Fatalf("trace %s appears on %d access-log lines, want >= 3 (ingress + forward + replicate):\n%s",
			trace, got, logs.String())
	}

	// A caller-supplied trace ID must survive a forwarded fit: the
	// non-owner proxies to an owner, and both log the caller's ID.
	want := "cafecafecafecafe"
	req, err := http.NewRequest("POST", g.url(nonOwner)+"/v1/fit",
		strings.NewReader(fmt.Sprintf(`{"id":%q}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, want)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != want {
		t.Fatalf("fit response trace = %q, want the caller's %q echoed", got, want)
	}
	if got := traceLines(logs.String(), want); got < 2 {
		t.Fatalf("caller trace %s appears on %d log lines, want >= 2 (non-owner + owner):\n%s",
			want, got, logs.String())
	}
}

// TestMetricsEndpoint scrapes a group member and checks the families
// the telemetry layer promises are present and that the scrape's own
// route appears in the request counter on a second scrape.
func TestMetricsEndpoint(t *testing.T) {
	g := newGroup(t, 2, 2, Config{AntiEntropyInterval: -1})

	scrape := func() obs.Samples {
		t.Helper()
		resp, err := http.Get(g.url(0) + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics Content-Type = %q, want text/plain exposition", ct)
		}
		s, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := scrape()
	for _, fam := range []string{
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
		"lvserve_store_bytes",
		"lvserve_inflight_requests",
	} {
		if !s.HasFamily(fam) {
			t.Errorf("scrape is missing family %s", fam)
		}
	}

	// The first scrape was recorded after its handler wrote, so the
	// second sees it in the counter and in the latency sketch.
	s = scrape()
	if v, ok := s.Get(`lvserve_requests_total{route="/v1/metrics",status="2xx"}`); !ok || v < 1 {
		t.Errorf("metrics route counter = %v, %v; want >= 1", v, ok)
	}
	if v, ok := s.Get(`lvserve_request_latency_seconds_count{route="/v1/metrics"}`); !ok || v < 1 {
		t.Errorf("metrics route latency count = %v, %v; want >= 1", v, ok)
	}
}
