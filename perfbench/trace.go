package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed call of the traced replay. Spans of one replayed
// query share Query; Parent is the ID of the span that caused the call
// (0 for a root).
type Span struct {
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rows is the number of table rows the call covered, for per-row
	// rungs.
	Rows uint64 `json:"rows,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Switched off, it
// records nothing and start returns 0. Not safe for concurrent use: the
// replay runs on one goroutine.
type tracer struct {
	on    bool
	base  time.Time
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// start opens a span named name under parent for query and returns its
// ID.
func (t *tracer) start(query, parent int, name string) int {
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Query: query, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.base))})
	return id
}

// end closes span id, recording the rows it covered.
func (t *tracer) end(id int, rows uint64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.base))
	s.Rows = rows
}

// durations returns the durations (ns) of the spans named name, or per
// row when perRow is set.
func durations(spans []Span, name string, perRow bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := float64(s.Dur())
		if perRow {
			if s.Rows == 0 {
				continue
			}
			d /= float64(s.Rows)
		}
		out = append(out, d)
	}
	return out
}

// validateSpans checks the trace's shape: IDs are positions, every
// parent exists, belongs to the same query and encloses its child.
func validateSpans(spans []Span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d, not an earlier span", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Query != s.Query {
			return fmt.Errorf("span %d (%s) is in query %d, its parent %d in query %d", s.ID, s.Name, s.Query, p.ID, p.Query)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
