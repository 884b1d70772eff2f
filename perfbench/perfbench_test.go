package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventmatch"
	"eventmatch/internal/match"
	"eventmatch/internal/server"
	"eventmatch/internal/server/client"
)

func samples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileRule(t *testing.T) {
	// p95 needs 10 samples beyond it: 200 is the least count that has them.
	if _, err := percentile(samples(199), 950); err == nil {
		t.Error("p95 of 199 samples accepted, want refused")
	}
	got, err := percentile(samples(200), 950)
	if err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond)", got, err)
	}
	if _, err := percentile(samples(19), 500); err == nil {
		t.Error("p50 of 19 samples accepted, want refused")
	}
	if got, err := percentile(samples(20), 500); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := percentile(nil, 500); err == nil {
		t.Error("percentile of no samples accepted")
	}

	for _, c := range []struct {
		n    int
		want int // per mille, 0 = none
	}{
		{19, 0}, {20, 500}, {99, 500}, {100, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		got, ok := highestPercentile(c.n)
		if !ok {
			got = 0
		}
		if got != c.want {
			t.Errorf("highestPercentile(%d) = p%s, want p%s", c.n, permilleName(got), permilleName(c.want))
		}
		if ok {
			if _, err := percentile(samples(c.n), got); err != nil {
				t.Errorf("highestPercentile(%d) = p%s, which percentile refuses: %v", c.n, permilleName(got), err)
			}
		}
	}

	r := newReport()
	if err := r.latencySummary(samples(150)); err == nil {
		t.Error("latency summary of 150 samples accepted, want p95 refused")
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"latency_p50_ms", "match.search_ms", "a-b_c.d", "9lives", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p95%", "naïve", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	r := newReport()
	r.Set("latency_p50_ms", "ms", 1, 1)
	if err := r.Validate(); err != nil {
		t.Errorf("valid report refused: %v", err)
	}
	r.Set("bad name", "ms", 1, 1)
	if err := r.Validate(); err == nil {
		t.Error("report with a bad name accepted")
	}
	r = newReport()
	r.Set("x", "milliseconds-long", 1, 1)
	if err := r.Validate(); err == nil {
		t.Error("report with a 17-letter unit accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the code reports in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, want)
	}

	r := newReport()
	if err := r.setEndToEnd(samples(200), 200, 200, 1, 200, 200, 200, 1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(r.names) || len(endToEnd) != len(r.names) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the code reports %d and orders %d",
			len(b.EndToEnd), len(r.names), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if i < len(endToEnd) && endToEnd[i] != m.Name {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s, code %s", i, m.Name, endToEnd[i])
		}
		if got, ok := r.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): code reports %+v", m.Name, m.Unit, got)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i := range b.PerLayer {
		if i < len(perLayer) && (b.PerLayer[i].Name != perLayer[i].name || b.PerLayer[i].Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, b.PerLayer[i], perLayer[i])
		}
		if !validName(b.PerLayer[i].Name) {
			t.Errorf("per-layer name %q invalid", b.PerLayer[i].Name)
		}
	}
}

func TestCheckPairsRefusesWrongMapping(t *testing.T) {
	want := map[string]string{"A": "x", "B": "y", "C": "z"}
	if err := checkPairs(map[string]string{"A": "x", "B": "y", "C": "z"}, want); err != nil {
		t.Errorf("equal mappings refused: %v", err)
	}
	for name, got := range map[string]map[string]string{
		"swapped": {"A": "y", "B": "x", "C": "z"},
		"missing": {"A": "x", "B": "y"},
		"extra":   {"A": "x", "B": "y", "C": "z", "D": "w"},
		"empty":   {},
	} {
		if err := checkPairs(got, want); err == nil {
			t.Errorf("%s mapping accepted", name)
		}
	}
}

func TestFig12ChecksRefuseWrongResults(t *testing.T) {
	p, err := newFig12Pair(1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := p.op(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check(good); err != nil {
		t.Fatalf("correct op refused: %v", err)
	}
	traced, err := matchTraced(context.Background(), nil, 0, p.in, eventmatch.AlgoExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraced(good, traced); err != nil {
		t.Fatalf("traced path disagrees with the plain op: %v", err)
	}

	swapped := good
	swapped.mapping = append(match.Mapping(nil), good.mapping...)
	swapped.mapping[0], swapped.mapping[1] = swapped.mapping[1], swapped.mapping[0]
	if err := checkTraced(swapped, traced); err == nil {
		t.Error("traced check accepted a swapped mapping")
	}
	for name, bad := range map[string]fig12Result{
		"truncated": {good.mapping, good.score, true, 1},
		"imperfect": {good.mapping, good.score, false, 0.9},
		"score":     {good.mapping, good.score + 1e-6, false, 1},
	} {
		if err := p.check(bad); err == nil {
			t.Errorf("check accepted a %s result", name)
		}
	}
}

func TestSessionCheckRefusesWrongResults(t *testing.T) {
	want := map[string]string{"A": "x", "B": "y"}
	good := func() *sessionRecord {
		return &sessionRecord{
			updates: streamAppends,
			final:   &server.SessionUpdate{Revision: 40, Pairs: map[string]string{"A": "x", "B": "y"}, Final: true},
		}
	}
	if err := checkSession(good(), 40, want); err != nil {
		t.Fatalf("correct session refused: %v", err)
	}
	wrong := good()
	wrong.final.Pairs = map[string]string{"A": "y", "B": "x"}
	coalesced := good()
	coalesced.updates--
	truncated := good()
	truncated.truncated = 1
	short := good()
	short.final.Revision = 32
	for name, rec := range map[string]*sessionRecord{
		"wrong mapping": wrong, "coalesced": coalesced, "truncated": truncated, "short": short,
	} {
		if err := checkSession(rec, 40, want); err == nil {
			t.Errorf("session check accepted a %s session", name)
		}
	}
}

// TestJobInputs checks the daemon-jobs traffic: rotated target logs carry the
// same traces as their base, every body is distinct, and the in-process match
// of a rotated log equals its base's reference — the equality the per-job
// parity check relies on.
func TestJobInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and matches 16 log pairs")
	}
	in, err := newJobInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for n := 0; n < 3*jobBases; n++ {
		body := in.body(n)
		if seen[string(body)] {
			t.Fatalf("job %d repeats an earlier body", n)
		}
		seen[string(body)] = true
		var req server.SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("job %d body: %v", n, err)
		}
		if req.Log2.Data != string(in.log2(n)) {
			t.Fatalf("job %d: body's log2 differs from log2(%d)", n, n)
		}
		base, _ := in.rotation(n)
		if got, want := sortedLines(in.log2(n)), sortedLines(in.log2(base)); got != want {
			t.Fatalf("job %d: rotated log2 carries other rows than its base", n)
		}
		if n >= jobBases && n < 2*jobBases {
			src := in.source(base)
			pairs, err := libMatch(src.l1, in.log2(n), src.patterns)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPairs(pairs, in.ref[base]); err != nil {
				t.Errorf("job %d: rotation changed the match: %v", n, err)
			}
		}
	}

	rec := &jobRecord{n: 5, base: 5, res: server.JobResult{Pairs: in.ref[5], Quality: &server.QualityInfo{}}}
	if err := in.check(rec); err != nil {
		t.Fatalf("correct job refused: %v", err)
	}
	rec.res.Pairs = in.ref[6]
	if checkPairs(in.ref[5], in.ref[6]) != nil {
		if err := in.check(rec); err == nil {
			t.Error("job check accepted another base's mapping")
		}
	}
	rec.res.Pairs = map[string]string{}
	if err := in.check(rec); err == nil {
		t.Error("job check accepted an empty mapping")
	}
	rec.res.Pairs, rec.res.Truncated = in.ref[5], true
	if err := in.check(rec); err == nil {
		t.Error("job check accepted a truncated result")
	}
}

func sortedLines(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestSpanCoverageAndSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 4, End: 5},
		{ID: 5, Name: "op", Start: 20, End: 30},
		{ID: 6, Parent: 5, Name: "a", Start: 20, End: 30},
	}
	st := aggregate(spans, "op")
	if st.Ops != 2 {
		t.Errorf("ops = %d, want 2", st.Ops)
	}
	// Op 1: children cover [1,6] = 5 of 10; op 2: 10 of 10.
	if want := 15.0 / 20; st.Coverage != want {
		t.Errorf("coverage = %v, want %v", st.Coverage, want)
	}
	if st.Self["op"] != 5 || st.Self["b"] != 2 || st.Total["a"] != 13 {
		t.Errorf("self op %v (want 5), self b %v (want 2), total a %v (want 13)",
			st.Self["op"], st.Self["b"], st.Total["a"])
	}

	var tr *Tracer
	tr.End(tr.Begin(1, 0, "op")) // a nil tracer records nothing
	if tr.Spans() != nil {
		t.Error("nil tracer returned spans")
	}
}

// testServer serves the daemon's handler in process, so the workload clients
// run against the real HTTP API under the race detector.
func testServer(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, SearchWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background()) // nothing is left running
	})
	return ts.URL
}

func TestClosedLoopJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and matches 16 log pairs")
	}
	in, err := newJobInputs(4)
	if err != nil {
		t.Fatal(err)
	}
	base := testServer(t)
	clients := newJobClients(base, in, time.Millisecond, newTracer())
	for _, jc := range clients {
		defer jc.close()
	}
	var next atomic.Int64
	calls := 0
	recs, _ := closedLoop(context.Background(), base, clients, &next, 0, 3, 3, true, func() { calls++ })
	if len(recs) != 6 || calls != 1 {
		t.Fatalf("%d records, atMin called %d times; want 6 and 1", len(recs), calls)
	}
	seen := map[int]bool{}
	for i := range recs {
		if err := in.check(&recs[i]); err != nil {
			t.Errorf("job %d: %v", recs[i].n, err)
		}
		if seen[recs[i].n] {
			t.Errorf("job number %d ran twice", recs[i].n)
		}
		seen[recs[i].n] = true
		if recs[i].ended.Before(recs[i].started) || recs[i].started.Before(recs[i].created) {
			t.Errorf("job %d: server stamps out of order", recs[i].n)
		}
	}
}

func TestStreamSession(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 50-append session")
	}
	in := newStreamInputs(5)
	si, err := in.session(0)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(testServer(t), nil)
	rec, err := si.run(context.Background(), c, true)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := si.batch()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSession(&rec, len(si.lines), res.Pairs); err != nil {
		t.Fatal(err)
	}
	if len(rec.latencyMS) != streamAppends || rec.cacheHits+rec.cacheMisses == 0 {
		t.Errorf("%d latencies, cache counters %v/%v", len(rec.latencyMS), rec.cacheHits, rec.cacheMisses)
	}
}
