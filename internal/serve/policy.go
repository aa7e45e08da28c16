package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"

	"lasvegas"
	"lasvegas/internal/store"
)

// policyRowResponse is one ranked strategy on the /v1/policy wire.
// Non-finite numbers cannot ride JSON, so +Inf cutoffs become
// never_restart=true with the cutoff omitted, and +Inf prices/bounds
// are omitted the same way (an absent expected with a present row
// means "this schedule cannot succeed on this law").
type policyRowResponse struct {
	Policy       string   `json:"policy"`
	Cutoff       *float64 `json:"cutoff,omitempty"`
	NeverRestart bool     `json:"never_restart,omitempty"`
	Unit         *float64 `json:"unit,omitempty"`
	Expected     *float64 `json:"expected,omitempty"`
	Simulated    float64  `json:"simulated"`
	SimStdErr    float64  `json:"sim_stderr"`
	CILo         *float64 `json:"ci_lo,omitempty"`
	CIHi         *float64 `json:"ci_hi,omitempty"`
	Gain         float64  `json:"gain"`
}

// policyResponse is the GET /v1/policy body: the ranked policy table
// for one stored campaign.
type policyResponse struct {
	ID        string              `json:"id"`
	Problem   string              `json:"problem"`
	Law       string              `json:"law"`
	Estimator string              `json:"estimator,omitempty"`
	Level     float64             `json:"level"`
	Reps      int                 `json:"reps"`
	Resamples int                 `json:"resamples"`
	Winner    string              `json:"winner"`
	Policies  []policyRowResponse `json:"policies"`
}

// finitePtr renders v for the wire: nil when it cannot ride JSON.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// handlePolicy answers GET /v1/policy?id=...: the ranked restart-
// policy table (no-restart / fixed-cutoff / Luby / fitted-optimal)
// for a stored campaign, each row priced in closed form under the
// fitted law and validated by a seeded replay plus a bootstrap CI on
// the campaign's own plug-in law. Owner-routed like every read; the
// rendered body caches on the entry (single-flight), so one campaign
// costs one table per replica — and the fit it builds on is the
// owner's own, shared with /v1/fit and /v1/predict.
func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeError(w, errors.New("serve: policy: missing id parameter"))
		return
	}
	owners := store.Owners(id, s.replicas, s.repl)
	if !ownedBy(owners, s.self) {
		s.forwardRead(w, r, owners, nil)
		return
	}
	e, err := s.getOrRepair(r.Context(), id, owners)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.quorumRead(r.Context(), e, owners); err != nil {
		s.writeError(w, err)
		return
	}
	v, computed, err := e.Policy(func() (any, error) {
		return s.computePolicy(r.Context(), e)
	})
	if err != nil {
		s.met.policyComputes.With("error").Inc()
		s.writeError(w, err)
		return
	}
	if computed {
		s.met.policyComputes.With("computed").Inc()
	} else {
		s.met.policyComputes.With("cached").Inc()
	}
	body := v.([]byte)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// computePolicy renders the policy table body for an entry. Like
// predict, the table is computed where the model lives (models do not
// round-trip the wire); the fit underneath is single-flight per
// process, and the rendered bytes cache on
// the entry, so the marginal cost of the table itself is paid once.
// The replay and bootstrap claim a gate slot — they are the same
// order of work as a fit and must not stampede past the worker bound.
func (s *Server) computePolicy(ctx context.Context, e *store.Entry) ([]byte, error) {
	_, model, err := s.fit(ctx, e)
	if err != nil && !errors.Is(err, lasvegas.ErrNoAcceptableFit) {
		return nil, err
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	// model == nil (no family accepted) makes PolicyTable fall back
	// to the plug-in law internally.
	table, err := s.pred.PolicyTable(ctx, e.Campaign, model)
	if err != nil {
		return nil, err
	}
	resp := policyResponse{
		ID:        e.ID,
		Problem:   e.Campaign.Problem,
		Law:       table.Law,
		Estimator: table.Estimator,
		Level:     table.Level,
		Reps:      table.Reps,
		Resamples: table.Resamples,
		Winner:    table.Winner,
	}
	for _, row := range table.Rows {
		rr := policyRowResponse{
			Policy:    row.Policy,
			Expected:  finitePtr(row.Expected),
			Simulated: row.Simulated,
			SimStdErr: row.StdErr,
			CILo:      finitePtr(row.Lo),
			CIHi:      finitePtr(row.Hi),
			Gain:      row.Gain,
		}
		switch {
		case row.Unit > 0:
			rr.Unit = finitePtr(row.Unit)
		case math.IsInf(row.Cutoff, 1):
			rr.NeverRestart = true
		case row.Cutoff > 0:
			rr.Cutoff = finitePtr(row.Cutoff)
		default:
			// no-restart: no parameter at all.
			rr.NeverRestart = row.Policy == lasvegas.PolicyNoRestart
		}
		resp.Policies = append(resp.Policies, rr)
	}
	buf, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
