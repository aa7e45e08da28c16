package serve

// Active anti-entropy: the background exchanger that makes replicas
// converge without waiting for a client read or a hint delivery.
//
// Hinted handoff covers the failure it can see — a peer that was down
// when a write fanned out. It cannot cover a hint log that was itself
// destroyed, a replica restored from an old backup, or any other way
// a copy silently goes missing; before this loop those healed only
// when a read happened to trigger read-repair, and a corpus whose
// campaigns are silently missing biases every downstream speed-up
// prediction (the fitted runtime distribution is only as good as the
// campaign data behind it). So each replica periodically compares,
// range by range, what it holds against the other owners of that
// range and pulls what it is missing through the same hash-verified
// fetch read-repair uses:
//
//   - the unit of comparison is a store.Digest — the range's sorted
//     campaign-id set plus the canonically-serialized merge of its
//     runtime quantile sketches. Converged replicas answer
//     byte-identical digests, so the common case costs one small GET
//     per (range, peer) pair and no per-id work at all;
//   - ids are content hashes, so "diverged" can only mean "missing"
//     and the set difference *is* the repair plan — no vector clocks,
//     no Merkle descent, no conflict resolution;
//   - pulls verify bytes against the id before storing (peekPeer),
//     so a corrupt peer cannot poison the group, and they store through
//     the normal fsync'd add path, so a pulled campaign is as durable
//     as an uploaded one.
//
// A replica that lost everything converges in one round per live peer
// that holds its ranges; bounded rounds, no client traffic required.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lasvegas/internal/obs"
	"lasvegas/internal/store"
)

// defaultAntiEntropyInterval paces the exchanger when
// Config.AntiEntropyInterval is 0: fast enough that a healing replica
// converges in human time, slow enough that an idle converged group
// spends its cycles serving.
const defaultAntiEntropyInterval = 15 * time.Second

// antiEntropyLoop runs digest-exchange rounds every aeInterval until
// Shutdown. The in-flight round is cancelled on stop rather than
// awaited — every peer call it makes is individually bounded, but a
// large heal should not hold Shutdown hostage.
func (s *Server) antiEntropyLoop() {
	defer close(s.aeDone)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-s.aeStop
		cancel()
	}()
	t := time.NewTicker(s.aeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.aeStop:
			return
		case <-t.C:
		}
		s.antiEntropyRound(ctx)
	}
}

// antiEntropyRound compares every hash range this replica holds with
// the range's other owners and pulls the campaigns it is missing,
// reporting how many it pulled. Pulls are one-directional — each
// replica repairs only itself — so a full group round trip (every
// replica running its own round) converges both sides of any
// asymmetry.
func (s *Server) antiEntropyRound(ctx context.Context) int {
	// A round is background work with no originating request: it gets
	// its own trace ID, which rides every digest fetch and pull so the
	// donor replicas' access logs attribute the traffic to this round.
	ctx = obs.WithTrace(ctx, obs.NewTraceID())
	start := time.Now()
	// Counters move no later than the state they describe: the round
	// counts as it starts and each pull before its copy is stored, so
	// an observer who sees a pulled campaign also sees its round and
	// its pull.
	s.aeRounds.Add(1)
	pulled := 0
	for _, rg := range store.OwnedRanges(s.self, s.replicas, s.repl) {
		local, err := store.BuildRangeDigest(s.store, rg, s.replicas, s.cfg.SketchK)
		if err != nil {
			continue
		}
		for _, o := range store.RangeOwners(rg, s.replicas, s.repl) {
			if o == s.self || ctx.Err() != nil {
				continue
			}
			remote := s.fetchDigest(ctx, o, rg)
			if remote == nil || remote.Equal(local) {
				continue
			}
			got := 0
			for _, id := range remote.MissingIDs(local) {
				// Belt and braces: a confused peer must not plant ids
				// outside the range it was asked about (peekPeer
				// already rejects bytes that don't hash to the id).
				if store.Owner(id, s.replicas) != rg {
					continue
				}
				c, canonical := s.peekPeer(ctx, o, id)
				if c == nil {
					continue
				}
				s.aePulled.Add(1)
				s.met.aePulled.Inc()
				if _, err := s.store.AddEncoded(id, canonical, c); err != nil {
					s.logger.Warn("anti-entropy could not store a pulled campaign",
						"id", id, "peer", o, "err", err, "trace", obs.Trace(ctx))
					continue
				}
				got++
			}
			if got > 0 {
				pulled += got
				// The local holdings changed; re-digest before the
				// next peer comparison so it diffs against reality.
				if local, err = store.BuildRangeDigest(s.store, rg, s.replicas, s.cfg.SketchK); err != nil {
					break
				}
			}
		}
	}
	d := time.Since(start)
	s.met.aeRounds.With().Observe(d.Seconds())
	if pulled > 0 {
		// A pull means a copy had silently gone missing — worth a line.
		// Converged rounds stay at debug so an idle group logs nothing.
		s.logger.Info("anti-entropy pulled missing campaigns",
			"pulled", pulled, "duration", d, "trace", obs.Trace(ctx))
	} else {
		s.logger.Debug("anti-entropy round converged",
			"duration", d, "trace", obs.Trace(ctx))
	}
	return pulled
}

// fetchDigest retrieves one peer's digest of one hash range. Any
// failure returns nil — the round just moves on and the next round
// retries (the peer client's breaker keeps a dead peer cheap).
func (s *Server) fetchDigest(ctx context.Context, peer, rangeIdx int) *store.Digest {
	resp, err := s.peerc.do(ctx, peer, s.cfg.PeerTimeout, "GET",
		"/v1/internal/digest?range="+strconv.Itoa(rangeIdx), nil, nil)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil
	}
	d := &store.Digest{}
	if json.Unmarshal(data, d) != nil || d.Range != rangeIdx {
		return nil
	}
	return d
}

// handleInternalDigest serves this replica's digest of one hash
// range — the peer-to-peer comparison behind anti-entropy. Strictly
// local, like the internal campaign fetch: the caller is a peer owner
// asking what *this* replica holds.
func (s *Server) handleInternalDigest(w http.ResponseWriter, r *http.Request) {
	rs := r.URL.Query().Get("range")
	if rs == "" {
		s.writeError(w, errors.New("serve: internal digest: missing range parameter"))
		return
	}
	ri, err := strconv.Atoi(rs)
	if err != nil || ri < 0 || ri >= s.replicas {
		s.writeError(w, fmt.Errorf("serve: internal digest: bad range %q (want 0..%d)", rs, s.replicas-1))
		return
	}
	d, err := store.BuildRangeDigest(s.store, ri, s.replicas, s.cfg.SketchK)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}
