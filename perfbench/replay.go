package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"lasvegas"
	"lasvegas/internal/store"
)

const (
	// replayOp is the span op id of the layer replay.
	replayOp = -1
	// replayAdds is the number of fsync'd store adds the replay times:
	// enough that the p99 has ten samples beyond it.
	replayAdds = 1000
	// replayDedups re-adds that many already-stored campaigns.
	replayDedups = 200
)

// layerCosts are the replay's mean costs, in ms, of the layer calls a
// daemon route makes for one campaign of the workload's mix.
type layerCosts struct {
	encode, add, dedup, fitAll, curve, table float64
}

// predictCores are the core counts of predictQuery.
var predictCores = []int{16, 64, 256}

// replay feeds a workload's generated campaigns through the layers the
// daemon calls — store.Encode, Disk.AddEncoded, Predictor.FitAll,
// Model.Policies, policy.Simulate/BootstrapCI and
// store.BuildRangeDigest — one call at a time, each in its own span,
// and reports their costs. Estimator options match the daemon's.
func replay(ctx context.Context, tr *tracer, set []*lasvegas.Campaign, dir string, rep *report) (layerCosts, error) {
	if len(set) == 0 {
		return layerCosts{}, errors.New("no campaigns to replay")
	}
	root := tr.start("replay", replayOp, 0)
	err := replayLayers(ctx, tr, set, dir, root.ID, rep)
	tr.end(root)
	if err != nil {
		return layerCosts{}, err
	}
	var spans []span
	for _, s := range tr.all() {
		if s.Op == replayOp {
			spans = append(spans, s)
		}
	}
	rep.set("fit.fitall_ms", quantile(durations(spans, "FitAll"), 0.5))
	rep.set("fit.sketch_fitall_ms", quantile(durations(spans, "FitAll.sketch"), 0.5))
	rep.set("policy.table_ms", quantile(durations(spans, "PolicyTable"), 0.5))
	rep.set("policy.panel_ms", quantile(durations(spans, "Policies"), 0.5))
	rep.set("policy.simulate_ms", quantile(sumByParent(spans, "policy.Simulate"), 0.5))
	rep.set("policy.bootstrap_ms", quantile(sumByParent(spans, "policy.BootstrapCI"), 0.5))
	rep.set("store.encode_us", quantile(durations(spans, "store.Encode"), 0.5)*1e3)
	adds := durations(spans, "store.AddEncoded")
	rep.set("store.add_fsync_p50_ms", quantile(adds, 0.5))
	rep.set("store.add_fsync_p99_ms", quantile(adds, 0.99))
	rep.set("store.add_dedup_us", quantile(durations(spans, "store.AddEncoded.dedup"), 0.5)*1e3)
	rep.set("store.replay_ms", quantile(durations(spans, "store.Open"), 0.5))
	rep.set("store.digest_ms", quantile(durations(spans, "store.BuildRangeDigest"), 0.5))
	return layerCosts{
		encode: mean(durations(spans, "store.Encode")),
		add:    mean(adds),
		dedup:  mean(durations(spans, "store.AddEncoded.dedup")),
		fitAll: mean(durations(spans, "FitAll")),
		curve:  mean(durations(spans, "Curve")),
		table:  mean(durations(spans, "PolicyTable")),
	}, nil
}

func replayLayers(ctx context.Context, tr *tracer, set []*lasvegas.Campaign, dir string, parent int64, rep *report) error {
	pred := lasvegas.New(lasvegas.WithCensoredFit(true))
	var candidates, accepted, unfit int
	for _, c := range set {
		sp := tr.start("store.Encode", replayOp, parent)
		_, _, err := store.Encode(c)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start("FitAll", replayOp, parent)
		cands, err := pred.FitAll(c)
		tr.end(sp)
		if err != nil {
			return err
		}
		var best *lasvegas.Model
		for _, cand := range cands {
			if cand.Err == nil && cand.Model != nil && cand.Model.Accepted() {
				accepted++
				if best == nil {
					best = cand.Model
				}
			}
		}
		candidates += len(cands)
		if best == nil {
			unfit++
			if best, err = pred.PlugIn(c); err != nil {
				return err
			}
		}
		sp = tr.start("Curve", replayOp, parent)
		_, err = best.Curve(ctx, predictCores)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !c.HasSketch() {
			// Raw campaigns also fit in sketch-backed form, so every
			// workload reports the streaming estimator alone.
			sk, err := c.Sketchify(0)
			if err != nil {
				return err
			}
			sp = tr.start("FitAll.sketch", replayOp, parent)
			_, err = pred.FitAll(sk)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		if err := tracedPolicies(tr, c, best, replayOp, parent); err != nil {
			return err
		}
	}
	rep.set("fit.accept_ratio", float64(accepted)/float64(max(candidates, 1)))
	rep.set("fit.no_acceptable_share", float64(unfit)/float64(len(set)))
	return replayStore(tr, set, dir, parent)
}

// replayStore times fsync'd adds, deduplicated re-adds, log replay on
// open and range digests on a fresh durable store.
func replayStore(tr *tracer, set []*lasvegas.Campaign, dir string, parent int64) error {
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "store")
	st, err := store.Open(path, fleetMaxCampaigns)
	if err != nil {
		return err
	}
	type rec struct {
		id   string
		data []byte
		c    *lasvegas.Campaign
	}
	var added []rec
	for i := 0; i < replayAdds; i++ {
		c := *set[i%len(set)] // a distinct variant of a generated campaign
		c.Seed = mix(c.Seed, uint64(i))
		id, data, err := store.Encode(&c)
		if err != nil {
			st.Close()
			return err
		}
		sp := tr.start("store.AddEncoded", replayOp, parent)
		_, err = st.AddEncoded(id, data, &c)
		tr.end(sp)
		if err != nil {
			st.Close()
			return err
		}
		if len(added) < replayDedups {
			added = append(added, rec{id, data, &c})
		}
	}
	for _, r := range added {
		sp := tr.start("store.AddEncoded.dedup", replayOp, parent)
		_, err := st.AddEncoded(r.id, r.data, r.c)
		tr.end(sp)
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	sp := tr.start("store.Open", replayOp, parent)
	st, err = store.Open(path, fleetMaxCampaigns)
	tr.end(sp)
	if err != nil {
		return err
	}
	defer st.Close()
	if n := st.Len(); n != replayAdds {
		return fmt.Errorf("replayed store holds %d campaigns, want %d", n, replayAdds)
	}
	for r := 0; r < fleetReplicas; r++ {
		sp := tr.start("store.BuildRangeDigest", replayOp, parent)
		_, err := store.BuildRangeDigest(st, r, fleetReplicas, 0)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// sumByParent sums the durations of spans named name under each
// parent.
func sumByParent(spans []span, name string) []float64 {
	byParent := map[int64]float64{}
	for _, s := range spans {
		if s.Name == name {
			byParent[s.Parent] += s.ms()
		}
	}
	out := make([]float64, 0, len(byParent))
	for _, v := range byParent {
		out = append(out, v)
	}
	return sortedCopy(out)
}

// opSpans returns the spans of timed ops (the replay's are excluded).
func opSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Op > 0 {
			out = append(out, s)
		}
	}
	return out
}
