package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lasvegas/internal/obs"
	"lasvegas/internal/serve"
)

// Fleet shape: the chaos drill's topology, in one process.
const (
	fleetReplicas = 3
	fleetK        = 2
	// fleetMaxCampaigns is far above what a run can upload, so no
	// campaign is ever evicted; the health guard proves it.
	fleetMaxCampaigns = 1 << 20
)

// fleet is a replica group served on loopback listeners.
type fleet struct {
	urls    []string
	servers []*serve.Server
	https   []*http.Server
	done    sync.WaitGroup
}

// bootFleet starts a 3-replica, k=2 group, each replica with its own
// durable data directory under dir.
func bootFleet(dir string) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, fleetReplicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		srv, err := serve.New(serve.Config{
			DataDir:           filepath.Join(dir, fmt.Sprintf("replica%d", i)),
			MaxCampaigns:      fleetMaxCampaigns,
			ReplicaIndex:      i,
			ReplicaCount:      fleetReplicas,
			Peers:             f.urls,
			ReplicationFactor: fleetK,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, errors.Join(err, f.close())
		}
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		f.servers = append(f.servers, srv)
		f.https = append(f.https, hs)
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
	}
	return f, nil
}

// close stops accepting, drains and closes every replica, and waits
// for the serving goroutines to exit.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range f.https {
		errs = append(errs, hs.Shutdown(ctx))
	}
	for _, s := range f.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	f.done.Wait()
	return errors.Join(errs...)
}

// connGauge counts the benchmark's open client connections and keeps
// the high-water mark for the connection guard.
type connGauge struct {
	open, peak atomic.Int64
}

func (g *connGauge) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := g.open.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: c, g: g}, nil
}

type countedConn struct {
	net.Conn
	g    *connGauge
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.g.open.Add(-1) })
	return c.Conn.Close()
}

// routeSent counts the requests the benchmark sent, by the daemon's
// route label, for the requests-total guard.
type routeSent struct {
	mu sync.Mutex
	n  map[string]int64
}

func (r *routeSent) add(route string) {
	r.mu.Lock()
	r.n[route]++
	r.mu.Unlock()
}

func (r *routeSent) snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.n))
	for k, v := range r.n {
		out[k] = v
	}
	return out
}

// client is one caller's HTTP client. It holds at most one connection:
// before talking to another replica it closes its idle one, so the
// benchmark never has more connections open than callers.
type client struct {
	urls    []string
	tr      *http.Transport
	hc      *http.Client
	current int
	sent    *routeSent
}

func newClient(urls []string, g *connGauge, sent *routeSent) *client {
	tr := &http.Transport{
		DialContext:         g.dial,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{
		urls:    urls,
		tr:      tr,
		hc:      &http.Client{Transport: tr, Timeout: 60 * time.Second},
		current: -1,
		sent:    sent,
	}
}

// do sends one request to replica and returns the status and body.
func (c *client) do(ctx context.Context, replica int, method, path, ctype string, body []byte) (int, []byte, error) {
	if replica != c.current {
		c.tr.CloseIdleConnections()
		c.current = replica
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.urls[replica]+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	route, _, _ := strings.Cut(path, "?")
	c.sent.add(route)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// scrape reads and parses one replica's /v1/metrics.
func (c *client) scrape(ctx context.Context, replica int) (obs.Samples, error) {
	status, body, err := c.do(ctx, replica, "GET", "/v1/metrics", "", nil)
	if err != nil {
		return obs.Samples{}, err
	}
	if status != http.StatusOK {
		return obs.Samples{}, fmt.Errorf("metrics: status %d", status)
	}
	return obs.ParseText(bytes.NewReader(body))
}

// statusClasses are the status-class labels of lvserve_requests_total.
var statusClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"}

// requestsFor sums lvserve_requests_total over status classes.
func requestsFor(s obs.Samples, route string) float64 {
	var sum float64
	for _, c := range statusClasses {
		v, _ := s.Get(fmt.Sprintf(`lvserve_requests_total{route=%q,status=%q}`, route, c))
		sum += v
	}
	return sum
}

// peerRPCs sums lvserve_peer_requests_total over outcomes.
func peerRPCs(s obs.Samples, endpoint string) float64 {
	ok, _ := s.Get(fmt.Sprintf(`lvserve_peer_requests_total{endpoint=%q,outcome="ok"}`, endpoint))
	bad, _ := s.Get(fmt.Sprintf(`lvserve_peer_requests_total{endpoint=%q,outcome="error"}`, endpoint))
	return ok + bad
}

func eventCount(s obs.Samples, family, event string) float64 {
	v, _ := s.Get(fmt.Sprintf(`%s{event=%q}`, family, event))
	return v
}

func gauge(s obs.Samples, name string) float64 {
	v, _ := s.Get(name)
	return v
}
