package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smartarrays/internal/machine"
	"smartarrays/internal/queryd"
	"smartarrays/internal/rts"
)

// TestLoaderClosedLoop runs two closed-loop clients against an
// in-process server: a fixed sequence is issued exactly once across the
// clients, timed streams stop at the deadline, and every answer checks.
func TestLoaderClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1 Mi-row dataset")
	}
	o := testOracle(t)
	cfg := queryd.DefaultConfig()
	cfg.CacheEntries = cacheEntries
	cfg.SharedScan = true
	srv, err := queryd.NewServer(rts.New(machine.X52Small()), cfg, []queryd.DatasetSpec{{
		Name: datasetName, Rows: tableRows, Seed: testSeed,
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w, _ := NewWorkload("dashboard", testSeed)
	d := newLoader(strings.TrimPrefix(hs.URL, "http://"), w, 2)
	defer d.close()

	seq := w.WarmupSequence(testSeed)[:200]
	logs := d.run(2, time.Time{}, sequence(seq))
	issued := map[int]int{}
	for _, l := range logs {
		for _, s := range l.samples {
			issued[s.query]++
		}
	}
	want := map[int]int{}
	for _, qi := range seq {
		want[qi]++
	}
	if len(issued) != len(want) {
		t.Fatalf("sequence issued %d distinct queries, want %d", len(issued), len(want))
	}
	for qi, n := range want {
		if issued[qi] != n {
			t.Fatalf("query %d issued %d times, want %d", qi, issued[qi], n)
		}
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	timed := d.run(2, deadline, streams(w, testSeed, 2, deadline))
	if time.Now().Sub(deadline) > 5*time.Second {
		t.Fatal("clients ran long past the deadline")
	}
	for c, l := range timed {
		if len(l.samples) == 0 {
			t.Fatalf("client %d sent nothing", c)
		}
	}
	for _, logs := range [][]*clientLog{logs, timed} {
		if failed, problems := checkAnswers(o, w, logs); failed > 0 {
			t.Fatalf("%d failed: %v", failed, problems)
		}
	}
}
