package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"lasvegas/internal/store"
)

// TestFitHerdOneComputePerOwner is the fit contract across replicas:
// a concurrent /v1/fit herd spread over all k owners of a campaign
// costs each owner exactly one fit (its per-process single-flight),
// so k owners cost at most k fits; every answer is the same bytes,
// and a repeat is served from the owner's cache.
func TestFitHerdOneComputePerOwner(t *testing.T) {
	g := newGroup(t, 3, 3, Config{AntiEntropyInterval: -1}) // k = n: all 3 own every id
	id := g.uploadSynth(0, synthCampaign(t, 40))
	fitBody := []byte(fmt.Sprintf(`{"id":%q}`, id))
	fits := func(i int, event string) int64 {
		return g.srv[i].met.fitComputes.With(event).Value()
	}

	const herd = 12
	responses := make([][]byte, herd)
	statuses := make([]int, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], responses[i] = g.do(i%3, "POST", "/v1/fit", fitBody)
		}(i)
	}
	wg.Wait()

	for i := 0; i < herd; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("herd request %d (replica %d): status %d, body %s",
				i, i%3, statuses[i], responses[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("herd request %d answer diverges:\n%s\nvs\n%s", i, responses[i], responses[0])
		}
	}
	for i := range g.srv {
		if n := fits(i, "computed"); n != 1 {
			t.Errorf("replica %d computed %d fits for the herd, want exactly 1", i, n)
		}
		if n := fits(i, "error"); n != 0 {
			t.Errorf("replica %d counted %d fit errors, want 0", i, n)
		}
	}

	primary := store.Owner(id, 3)
	secondary := (primary + 1) % 3
	cached := fits(secondary, "cached")
	status, resp := g.do(secondary, "POST", "/v1/fit", fitBody)
	if status != http.StatusOK || !bytes.Equal(resp, responses[0]) {
		t.Errorf("repeat fit via replica %d: status %d, body %s", secondary, status, resp)
	}
	if got := fits(secondary, "cached"); got != cached+1 {
		t.Errorf("repeat fit counted %d cached fits, want %d", got, cached+1)
	}
	if n := fits(secondary, "computed"); n != 1 {
		t.Errorf("repeat fit recomputed: %d fits computed, want 1", n)
	}
}

// TestFitSecondaryAnswersWithPrimaryDown: a fit needs no other
// replica, so with the primary dead a secondary owner fits its own
// copy and answers with the bytes the primary gave.
func TestFitSecondaryAnswersWithPrimaryDown(t *testing.T) {
	g := newGroup(t, 3, 3, Config{AntiEntropyInterval: -1})
	id := g.uploadSynth(0, synthCampaign(t, 40))
	fitBody := []byte(fmt.Sprintf(`{"id":%q}`, id))
	primary := store.Owner(id, 3)
	secondary := (primary + 1) % 3

	status, want := g.do(primary, "POST", "/v1/fit", fitBody)
	if status != http.StatusOK {
		t.Fatalf("fit via primary %d: status %d, body %s", primary, status, want)
	}
	g.kill(primary)
	status, resp := g.do(secondary, "POST", "/v1/fit", fitBody)
	if status != http.StatusOK || !bytes.Equal(resp, want) {
		t.Errorf("fit via secondary with the primary down: status %d, body %s\nwant %s", status, resp, want)
	}
	if n := g.srv[secondary].met.fitComputes.With("computed").Value(); n != 1 {
		t.Errorf("secondary computed %d fits, want 1", n)
	}
}
