package sketch

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSketch folds arbitrary fuzz bytes into a small-capacity sketch
// (k=8 forces compactions early, exercising the lossy path) with a
// deterministic byte→observation mapping.
func fuzzSketch(t *testing.T, data []byte) *Sketch {
	t.Helper()
	s, err := New(8)
	if err != nil {
		t.Fatalf("New(8): %v", err)
	}
	for i, b := range data {
		// Spread values across sign and magnitude so merges see
		// interleaved ranges, not sorted runs.
		x := float64(int8(b)) * float64(1+i%7)
		if err := s.Add(x); err != nil {
			t.Fatalf("Add(%v): %v", x, err)
		}
	}
	return s
}

// FuzzSketchRoundTrip pins the serialize → merge → deserialize
// algebra on arbitrary observation streams: marshalling must be
// canonical (round-tripping yields the same bytes), and merging a
// deserialized copy must be byte-equivalent to merging the original —
// the property replica anti-entropy and shard pooling rely on.
func FuzzSketchRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 255, 128, 7}, []byte{42})
	f.Add(bytes.Repeat([]byte{9, 200, 33}, 40), bytes.Repeat([]byte{1}, 100))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa := fuzzSketch(t, a)
		sb := fuzzSketch(t, b)

		ja, err := sa.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var ra Sketch
		if err := ra.UnmarshalJSON(ja); err != nil {
			t.Fatalf("unmarshal own bytes: %v", err)
		}
		ja2, err := ra.MarshalJSON()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(ja, ja2) {
			t.Fatalf("round trip not canonical:\n%s\nvs\n%s", ja, ja2)
		}
		if ra.N() != sa.N() {
			t.Fatalf("round trip changed n: %d vs %d", ra.N(), sa.N())
		}

		m1, err := Merge(sa, sb)
		if err != nil {
			t.Fatalf("merge originals: %v", err)
		}
		m2, err := Merge(&ra, sb)
		if err != nil {
			t.Fatalf("merge deserialized: %v", err)
		}
		j1, err := m1.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		j2, err := m2.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("merge of deserialized copy diverged:\n%s\nvs\n%s", j1, j2)
		}
		if m1.N() != sa.N()+sb.N() {
			t.Fatalf("merged n = %d, want %d", m1.N(), sa.N()+sb.N())
		}
	})
}

// FuzzSketchUnmarshal feeds arbitrary bytes to UnmarshalJSON: hostile
// or corrupt wire input must fail with ErrSketch (or a JSON error),
// never panic, and an accepted sketch must re-marshal canonically.
func FuzzSketchUnmarshal(f *testing.F) {
	valid, _ := func() ([]byte, error) {
		s, _ := New(8)
		for i := 0; i < 50; i++ {
			s.Add(float64(i * 3))
		}
		return s.MarshalJSON()
	}()
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"k":8,"n":1,"levels":[[1]]}`))
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalJSON(data); err != nil {
			return
		}
		out, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted sketch does not re-marshal: %v", err)
		}
		var again Sketch
		if err := again.UnmarshalJSON(out); err != nil {
			t.Fatalf("accepted sketch's own bytes rejected: %v", err)
		}
	})
}

// FuzzSketchRankIndex checks the guide-table rank lookup against the
// sort.Search reference on arbitrary streams (k=8, so compaction
// starts early) and arbitrary ranks, given both raw and as a fraction
// of n, plus every cumulative-weight boundary.
func FuzzSketchRankIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3}, 0.5)
	f.Add(bytes.Repeat([]byte{7}, 100), 1.0)
	f.Add(bytes.Repeat([]byte{9, 200, 33}, 40), 0.999)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 300), 1e-9)

	f.Fuzz(func(t *testing.T, data []byte, rank float64) {
		s := fuzzSketch(t, data)
		if s.N() == 0 {
			return
		}
		checkRankIndex(t, s, rank, rank*float64(s.N()), math.Abs(rank))
	})
}
