package service

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"seesaw/internal/store"
)

// newLadderServer builds a server with NO injected run function — the
// real ladder path — over the given store.
func newLadderServer(t *testing.T, st *store.Store, rungEvery int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		QueueDepth: 2, Workers: 2, Store: st, SnapRungEvery: rungEvery,
		Logger: log.New(io.Discard, "", 0),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getHealth(t *testing.T, url string) healthBody {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCellRunClimbsLadder: a daemon with a store warms its cells
// through the snapshot ladder — the first cell persists rungs, a
// restarted daemon over the same directory resumes from the boundary
// rung with zero warmup references executed, and the reports agree:
// the warmup a daemon computed in a previous life is found on disk.
func TestCellRunClimbsLadder(t *testing.T) {
	dir := t.TempDir()
	quiet := log.New(io.Discard, "", 0)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Logger = quiet

	cell := CellSpec{
		Workload: "redis", Cache: "seesaw", Refs: 1_000, WarmupRefs: 6_000,
		Seed: 7, MemMB: 256,
	}
	_, ts1 := newLadderServer(t, st, 2_500)
	res1 := runCell(t, ts1.URL, cell)
	if res1.Error != "" || res1.Report == nil {
		t.Fatalf("first cell: %+v", res1)
	}
	h := getHealth(t, ts1.URL)
	if h.Ladder == nil || h.Ladder.Warmups != 1 || h.Ladder.RungHits != 0 {
		t.Fatalf("first daemon healthz ladder = %+v, want one cold warmup", h.Ladder)
	}
	// Rungs at 2500, 5000, and the 6000 boundary.
	if h.Ladder.RungPuts != 3 || st.SnapLen() != 3 {
		t.Fatalf("first daemon persisted %d rungs (disk: %d), want 3", h.Ladder.RungPuts, st.SnapLen())
	}

	// "Restart": a fresh store handle and server over the same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Logger = quiet
	_, ts2 := newLadderServer(t, st2, 2_500)
	// Same warmup signature, different measured phase — the rung must
	// still serve it.
	cell2 := cell
	cell2.Cache = "baseline"
	res2 := runCell(t, ts2.URL, cell2)
	if res2.Error != "" || res2.Report == nil {
		t.Fatalf("resumed cell: %+v", res2)
	}
	h2 := getHealth(t, ts2.URL)
	if h2.Ladder == nil || h2.Ladder.RungHits != 1 || h2.Ladder.ResumedRefs != 6_000 || h2.Ladder.RunRefs != 0 {
		t.Fatalf("restarted daemon healthz ladder = %+v, want a full-depth resume", h2.Ladder)
	}

	// The resumed run and a ladder-free run of the same cell agree.
	sClean := New(Config{QueueDepth: 2, Workers: 2, Logger: quiet})
	tsClean := httptest.NewServer(sClean.Handler())
	defer func() { tsClean.Close(); sClean.Close() }()
	resClean := runCell(t, tsClean.URL, cell2)
	if !reflect.DeepEqual(resClean.Report, res2.Report) {
		t.Error("ladder-resumed report differs from the ladder-free run")
	}
}
