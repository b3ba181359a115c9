package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.start(0, 0, "x")
	tr.end(id, 10)
	if id != 0 || len(tr.spans) != 0 {
		t.Fatalf("tracer off recorded span %d (%d spans)", id, len(tr.spans))
	}
}

func TestValidateSpans(t *testing.T) {
	tr := newTracer(true)
	root := tr.start(1, 0, "root")
	child := tr.start(1, root, "child")
	tr.end(child, 64)
	tr.end(root, 0)
	if err := validateSpans(tr.spans); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if d := durations(tr.spans, "child", true); len(d) != 1 || d[0] != float64(tr.spans[1].Dur())/64 {
		t.Fatalf("per-row duration %v", d)
	}
	bad := func(name string, edit func(s []Span)) {
		s := append([]Span(nil), tr.spans...)
		edit(s)
		if err := validateSpans(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad("foreign query", func(s []Span) { s[1].Query = 2 })
	bad("missing parent", func(s []Span) { s[1].Parent = 5 })
	bad("self parent", func(s []Span) { s[1].Parent = 2 })
	bad("child outside parent", func(s []Span) { s[1].End = s[0].End + 1 })
	bad("negative duration", func(s []Span) { s[0].End = s[0].Start - 1 })
}

// TestReplaySpans runs a short traced replay and checks that every span
// of a replayed query shares its query id under a valid parent, that
// the spans round-trip through the span file, and that every reported
// replay metric is measured.
func TestReplaySpans(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1 Mi-row dataset")
	}
	o := testOracle(t)
	defer func(n int) { replayQueries["dashboard"] = n }(replayQueries["dashboard"])
	replayQueries["dashboard"] = 24
	w, _ := NewWorkload("dashboard", testSeed)
	// The replay builds the served dataset with the mixed workload's
	// graph; this oracle's graph is smaller, so graph answers are not
	// checked here — dashboard has no graph queries.
	rep, err := replay(w, testSeed, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 {
		t.Fatalf("replay problems: %v", rep.problems)
	}
	if err := validateSpans(rep.spans); err != nil {
		t.Fatal(err)
	}
	roots := map[int]bool{}
	for _, s := range rep.spans {
		if s.Parent == 0 {
			roots[s.Query] = true
			if !strings.HasPrefix(s.Name, "replay.") {
				t.Errorf("root span %q is not a replay span", s.Name)
			}
		}
	}
	for q := 0; q < 24; q++ {
		if !roots[q] {
			t.Errorf("replayed query %d has no root span", q)
		}
	}
	fromReplay := func(name string) bool {
		for _, p := range []string{"plan.", "queryd.handler", "queryd.alloc", "colstore.", "core.", "bitpack.", "rts.", "analytics.", "encoding.", "trace."} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for _, d := range perLayer {
		if !d.reported || !fromReplay(d.name) {
			continue
		}
		if v, ok := rep.metrics[d.name]; !ok || v.err != nil {
			t.Errorf("replay metric %s not measured: %+v", d.name, v)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, rep.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != len(rep.spans) || back[len(back)-1] != rep.spans[len(rep.spans)-1] {
		t.Fatalf("span file holds %d spans, want %d", len(back), len(rep.spans))
	}
}
