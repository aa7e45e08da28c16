package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// TraceHeader is the HTTP header a trace ID rides between the client,
// the ingress replica, and every peer hop (replicate fan-out,
// forward/failover, read-repair fetches, hint redelivery, anti-entropy
// pulls). A request arriving with the header keeps its
// ID; one arriving without gets a fresh ID at ingress — so one client
// request is one grep-able ID across the whole replica group, and the
// response always carries the ID back to the client.
const TraceHeader = "Lvserve-Trace-Id"

// traceKey is the context key trace IDs travel under in-process.
type traceKey struct{}

// NewTraceID returns a fresh 16-hex-character trace ID. Reading
// crypto/rand cannot fail on supported platforms; if it somehow does,
// an all-zero ID (still valid, just not unique) beats taking the
// request down.
func NewTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// WithTrace returns ctx carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// Trace returns the trace ID carried by ctx, or "".
func Trace(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}
