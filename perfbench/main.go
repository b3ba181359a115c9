// Command perfbench is the repository's wall-clock serving benchmark. It
// starts the saserve binary built from this tree in its own process,
// drives it over loopback with closed-loop clients on one workload,
// checks every answer against an independent oracle, and prints every
// end-to-end metric by name with its unit. With -trace 1 it then replays
// the workload's queries in process, timing calls into each layer
// (plan, queryd handler, colstore, core, bitpack, rts, analytics), and
// reports the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// The exit status is nonzero when any answer was wrong or the run could
// not be measured. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"smartarrays/internal/queryd"
	"smartarrays/internal/queryd/loadgen"
)

// clients is the closed-loop client count of the timed window: one per
// CPU of the 2-vCPU reference host, each a caller waiting for its reply.
const clients = 2

// setups is how many times a run starts the server; setup_s is the
// median, and the last server serves the run.
const setups = 5

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	saserve  string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(WorkloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the generated queries and the served dataset")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from the traced replay")
	flag.StringVar(&o.saserve, "saserve", ".bench_build/saserve", "saserve binary built from this tree")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the result file and spans")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final stdout line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// errWrong marks a run that completed but served wrong answers: the
// result line is still printed, and the exit status is nonzero.
var errWrong = errors.New("wrong answers served")

func run(o options) error {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	w, err := NewWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	if _, err := os.Stat(o.saserve); err != nil {
		return fmt.Errorf("saserve binary: %w", err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	host := fingerprint(".")
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d clients=%d\n", w.Name, o.seed, o.seconds, o.trace, clients)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit, host.Source)

	phase := time.Now()
	logPhase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s took %.2fs\n", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	oracle, err := NewOracle(o.seed, w.Vertices)
	if err != nil {
		return err
	}
	logPhase("oracle build")

	m := metrics{}
	var setupS []float64
	var srv *server
	for i := 0; i < setups; i++ {
		s, err := startServer(o.saserve, o.out, w.ServerArgs(o.seed))
		if err != nil {
			return err
		}
		setupS = append(setupS, s.setup.Seconds())
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	m.set("setup_s", median(append([]float64(nil), setupS...)), fmt.Sprintf("median of %d starts %.3v", len(setupS), setupS))
	if err := oracle.CheckMeta(srv.meta); err != nil {
		return fmt.Errorf("served dataset differs from the oracle's: %w", err)
	}

	logPhase("server starts")
	d := newLoader(srv.addr, w, max(clients, w.WarmupClients))
	defer d.close()
	warm := d.run(w.WarmupClients, time.Time{}, sequence(w.WarmupSequence(o.seed)))
	logPhase("warm-up")

	before, err := fetchCounters(srv.addr)
	if err != nil {
		return err
	}
	window := time.Duration(o.seconds) * time.Second
	deadline := time.Now().Add(window)
	timed := d.run(clients, deadline, streams(w, o.seed, clients, deadline))
	after, err := fetchCounters(srv.addr)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	m.set("rss_mb", rss, "server VmHWM")

	// Invariant spot checks against the catalog, then the server goes.
	var problems []string
	if err := loadgen.SpotCheck(srv.addr); err != nil {
		problems = append(problems, "spot check: "+err.Error())
	}
	if w.Vertices > 0 {
		if err := checkRankMass(d); err != nil {
			problems = append(problems, err.Error())
		}
	}
	srv.stop()
	logPhase("timed window and spot checks")

	warmFailed, warmProblems := checkAnswers(oracle, w, warm)
	failed, timedProblems := checkAnswers(oracle, w, timed)
	problems = append(problems, warmProblems...)
	problems = append(problems, timedProblems...)
	if warmFailed > 0 {
		problems = append(problems, fmt.Sprintf("%d warm-up requests failed", warmFailed))
	}
	attempted := 0
	for _, l := range timed {
		attempted += len(l.samples)
	}
	logPhase("answer checks")
	measureTimed(m, w, timed, window, failed, attempted)
	measureCounters(m, before, after)

	var spans []Span
	if o.trace == 1 {
		rep, err := replay(w, o.seed, oracle)
		if err != nil {
			return err
		}
		for k, v := range rep.metrics {
			m[k] = v
		}
		spans = rep.spans
		problems = append(problems, rep.problems...)
		logPhase("traced replay")
	}

	m.print(os.Stdout, "end-to-end", endToEnd)
	m.print(os.Stdout, "per-layer", perLayer)
	for _, p := range problems {
		fmt.Println("problem:", p)
	}
	correct := len(problems) == 0 && failed == 0

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	reported, err := m.reported(defs)
	if err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, o.seed, o.trace))
	if err := writeRecord(base+".json", o, host, m, correct, attempted, failed, problems); err != nil {
		return err
	}
	if spans != nil {
		if err := writeSpans(base+".spans.jsonl", spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s.spans.jsonl\n", len(spans), base)
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: reported})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errWrong
	}
	return nil
}

// checkAnswers compares every successful response with the oracle and
// returns how many requests failed (non-200, transport error or wrong
// answer) with a few example messages.
func checkAnswers(o *Oracle, w *Workload, logs []*clientLog) (int, []string) {
	failed := 0
	var problems []string
	for _, l := range logs {
		for _, s := range l.samples {
			if !s.ok() {
				failed++
			}
		}
		problems = append(problems, l.errs...)
		// Sorted so the reported examples do not depend on map order.
		qis := make([]int, 0, len(l.results))
		for qi := range l.results {
			qis = append(qis, qi)
		}
		sort.Ints(qis)
		for _, qi := range qis {
			for raw, n := range l.results[qi] {
				if err := o.Check(w.Queries[qi], json.RawMessage(raw)); err != nil {
					failed += n
					if len(problems) < 10 {
						problems = append(problems, fmt.Sprintf("wrong answer to %s: %v", w.Queries[qi].Body(false), err))
					}
				}
			}
		}
	}
	return failed, problems
}

// checkRankMass asks for a full PageRank and checks the rank mass: with
// sinks leaking rank the sum stays at most 1, and it must stay well
// above 0.
func checkRankMass(d *loader) error {
	q := Query{Op: "pagerank", Iters: pageRankIters}
	_, raw, err := d.post(q.Body(false))
	if err != nil {
		return fmt.Errorf("pagerank spot check: %w", err)
	}
	var res queryd.PageRankResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("pagerank spot check: %w", err)
	}
	if !(res.RankSum > 0.5 && res.RankSum <= 1+1e-9) {
		return fmt.Errorf("pagerank rank sum %v outside (0.5, 1]", res.RankSum)
	}
	return nil
}

// measureTimed derives the end-to-end and response-based per-layer
// metrics from the timed window's samples.
func measureTimed(m metrics, w *Workload, logs []*clientLog, window time.Duration, failed, attempted int) {
	var all, table, graph, overhead, hit, miss, rider, indep []float64
	byOp := map[string][]float64{}
	okInWindow, computedPred, shared := 0, 0, 0
	for _, l := range logs {
		for _, s := range l.samples {
			if !s.ok() {
				continue
			}
			if !s.late {
				okInWindow++
			}
			ms := float64(s.latency.Nanoseconds()) / 1e6
			q := w.Queries[s.query]
			all = append(all, ms)
			byOp[q.Op] = append(byOp[q.Op], ms)
			overhead = append(overhead, ms-s.wallMS)
			if q.IsTable() {
				table = append(table, ms)
			} else {
				graph = append(graph, ms)
			}
			if s.cached {
				hit = append(hit, ms)
				continue
			}
			miss = append(miss, ms)
			if !q.IsTable() {
				continue
			}
			if s.shared {
				rider = append(rider, ms)
				shared++
			} else {
				indep = append(indep, ms)
			}
			if len(q.Where) > 0 {
				computedPred++
			}
		}
	}
	m.set("qps", float64(okInWindow)/window.Seconds(), fmt.Sprintf("%d ok in %v", okInWindow, window))
	m.pct("p50_ms", all, 0.50)
	m.pct("p99_ms", append([]float64(nil), all...), 0.99)
	m.pct("table_p50_ms", table, 0.50)
	m.pct("table_p99_ms", append([]float64(nil), table...), 0.99)
	if len(graph) > 0 {
		m.pct("graph_p50_ms", graph, 0.50)
	}
	m.share("error_share", failed, attempted)

	m.pct("http.overhead_p50_ms", overhead, 0.50)
	m.share("queryd.cache.hit_rate", len(hit), len(all))
	if len(hit) > 0 {
		m.pct("queryd.cache.hit_p50_ms", hit, 0.50)
	}
	m.pct("queryd.cache.miss_p50_ms", miss, 0.50)
	m.share("queryd.shared.enroll_share", shared, computedPred)
	if len(rider) > 0 {
		m.pct("queryd.shared.rider_p50_ms", rider, 0.50)
	}
	m.pct("queryd.independent_p50_ms", indep, 0.50)
	for _, op := range []string{"aggregate", "groupby", "pagerank", "bfs", "degree"} {
		if s := byOp[op]; len(s) > 0 || op == "aggregate" || op == "groupby" {
			m.pct("op."+op+"_p50_ms", s, 0.50)
		}
	}
}

// measureCounters derives the per-layer metrics read from the server's
// counters over the timed window.
func measureCounters(m metrics, before, after serverCounters) {
	qw := histDelta(before.hists[queueWaitHist], after.hists[queueWaitHist])
	if qw.Count > 0 {
		// The server keeps only log2 buckets; the quantile interpolates
		// within one.
		m.set("queryd.queue_wait_p99_ms", qw.Quantile(0.99)/1e6, fmt.Sprintf("n=%d, log2 buckets", qw.Count))
	} else {
		m.fail("queryd.queue_wait_p99_ms", errors.New("no admitted queries"))
	}
	sb := histDelta(before.hists[sharedBatchHist], after.hists[sharedBatchHist])
	if sb.Count > 0 {
		m.set("queryd.shared.batch_mean", float64(sb.SumNs)/float64(sb.Count), fmt.Sprintf("%d segment passes", sb.Count))
	}
	c := after.Cache
	fmt.Printf("server: cache Δhits=%d Δmisses=%d Δevictions=%d; shared Δenrolled=%d Δcoalesced=%d Δbypassed=%d Δpasses=%d Δshared_batches=%d max_batch=%d\n",
		c.Hits-before.Cache.Hits, c.Misses-before.Cache.Misses, c.Evictions-before.Cache.Evictions,
		after.SharedScan.Enrolled-before.SharedScan.Enrolled, after.SharedScan.Coalesced-before.SharedScan.Coalesced,
		after.SharedScan.Bypassed-before.SharedScan.Bypassed, after.SharedScan.SegmentPasses-before.SharedScan.SegmentPasses,
		after.SharedScan.SharedBatches-before.SharedScan.SharedBatches, after.SharedScan.MaxBatch)
}

// record is the result file: the result line's content plus every
// printed metric, the host fingerprint and the seed, so results from
// different hosts are never compared by mistake.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Clients  int    `json:"clients"`
	// ServerArgs are experiment flags added to the workload's; results
	// with any are not comparable with the benchmark's.
	ServerArgs string         `json:"server_args,omitempty"`
	Host       Host           `json:"host"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Problems   []string       `json:"problems,omitempty"`
	Metrics    map[string]any `json:"metrics"`
}

func writeRecord(path string, o options, host Host, m metrics, correct bool, attempted, failed int, problems []string) error {
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Clients: clients,
		Host: host, Correct: correct, Attempted: attempted, Failed: failed, Problems: problems, Metrics: map[string]any{}}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.name]; ok && v.err == nil && !math.IsNaN(v.value) {
				rec.Metrics[d.name] = map[string]any{"value": v.value, "unit": d.unit, "note": v.note}
			}
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
