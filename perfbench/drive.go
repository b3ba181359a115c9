package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	query   int           // pool index
	latency time.Duration // send to last response byte
	status  int           // HTTP status; 0 for a transport error
	wallMS  float64       // server-side wall time from the response
	cached  bool
	shared  bool
	// late marks a request that completed after the timed window closed.
	late bool
}

// ok reports whether the request got a 200 (its answer is checked
// separately).
func (s sample) ok() bool { return s.status == http.StatusOK }

// clientLog is what one client records: its samples, the distinct
// results each query returned (with how many responses carried each),
// and the first few errors for the report.
type clientLog struct {
	samples []sample
	results map[int]map[string]int
	errs    []string
}

// loader issues requests to one server over loopback.
type loader struct {
	url    string
	bodies [][]byte
	client *http.Client
}

func newLoader(addr string, w *Workload, clients int) *loader {
	bodies := make([][]byte, len(w.Queries))
	for i, q := range w.Queries {
		bodies[i] = q.Body(false)
	}
	return &loader{
		url:    "http://" + addr + "/query",
		bodies: bodies,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
}

// close drops the loader's idle connections.
func (d *loader) close() { d.client.CloseIdleConnections() }

// run drives clients closed-loop clients: each sends its next query
// (next(client) returns the pool index, or false to stop) only after
// the previous reply arrived. Requests completing after deadline (if
// non-zero) are marked late.
func (d *loader) run(clients int, deadline time.Time, next func(client int) (int, bool)) []*clientLog {
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		logs[c] = &clientLog{results: map[int]map[string]int{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := logs[c]
			for {
				qi, more := next(c)
				if !more {
					return
				}
				s, result, err := d.do(qi)
				s.late = !deadline.IsZero() && time.Now().After(deadline)
				l.samples = append(l.samples, s)
				if err != nil {
					if len(l.errs) < 5 {
						l.errs = append(l.errs, err.Error())
					}
					continue
				}
				m := l.results[qi]
				if m == nil {
					m = map[string]int{}
					l.results[qi] = m
				}
				m[string(result)]++
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// do sends pool query qi and returns its sample and raw result.
func (d *loader) do(qi int) (sample, []byte, error) {
	s, result, err := d.post(d.bodies[qi])
	s.query = qi
	if err != nil {
		err = fmt.Errorf("query %d: %w", qi, err)
	}
	return s, result, err
}

// post sends one request body and returns its sample and raw result.
func (d *loader) post(body []byte) (sample, []byte, error) {
	var s sample
	start := time.Now()
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.latency = time.Since(start)
		return s, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(start)
	if err != nil {
		return s, nil, err
	}
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		WallMS float64         `json:"wall_ms"`
		Cached bool            `json:"cached"`
		Shared bool            `json:"shared"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		s.status = 0
		return s, nil, fmt.Errorf("decoding response: %w", err)
	}
	s.wallMS, s.cached, s.shared = env.WallMS, env.Cached, env.Shared
	return s, env.Result, nil
}

// sequence returns a next function handing out seq's entries to
// whichever client asks first.
func sequence(seq []int) func(int) (int, bool) {
	var mu sync.Mutex
	i := 0
	return func(int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(seq) {
			return 0, false
		}
		i++
		return seq[i-1], true
	}
}

// streams returns a next function where client c draws from its own
// stream until deadline. Each client only touches its own stream.
func streams(w *Workload, seed uint64, clients int, deadline time.Time) func(int) (int, bool) {
	ss := make([]*Stream, clients)
	for c := range ss {
		ss[c] = w.NewStream(seed, clientStream+uint64(c))
	}
	return func(c int) (int, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return ss[c].Next(), true
	}
}
