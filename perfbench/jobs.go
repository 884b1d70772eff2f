package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventmatch"
	"eventmatch/internal/gen"
	"eventmatch/internal/server"
	"eventmatch/internal/server/client"
)

// The daemon-jobs workload: RealLike pairs (11 events, 1,000 traces per log,
// CSV) submitted as JSON jobs with their ground truth and the default
// heuristic-advanced algorithm, by two closed-loop clients.
const (
	jobTraces = 1000
	// jobSources source logs and jobBases target logs are generated; base k
	// is matched against source k%jobSources. Job n sends base n%jobBases
	// with its traces rotated by n/jobBases, so no target log repeats within
	// a run (every job misses the problem cache) while the few source logs
	// stay in the log cache. The heuristic's F-measure is set by the source
	// instance, so several sources keep it from hinging on one draw.
	jobSources = 8
	jobBases   = 16
	jobClients = 2
	// warmupJobs per client run before timing, on every set-up repeat.
	warmupJobs = 4
	// sampleChecks measured jobs are re-matched in process on their exact
	// bytes after the window.
	sampleChecks = 16
	// minOps is the least number of measured ops in a run: enough for p95
	// with 10 samples beyond it. A run that has not reached it when the
	// window closes keeps going until it has.
	minOps = 200
)

// jobSource is one source log with its JSON submission prefix.
type jobSource struct {
	l1       []byte
	patterns []string
	prefix   []byte // the JSON body up to log2's data
}

// jobInputs is the pre-encoded traffic of one run.
type jobInputs struct {
	sources []jobSource
	header  string // the targets' CSV header line
	// blocks[k] are base k's CSV rows, one block per trace; escaped[k] the
	// same blocks JSON-escaped.
	blocks, escaped [][]string
	ref             []map[string]string // in-process result pairs per base
	truth           map[string]string   // the same for every RealLike pair
	l1Bytes         int
	l2Bytes         int
}

func newJobInputs(seed int64) (*jobInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &jobInputs{}
	for k := 0; k < jobBases; k++ {
		g := gen.RealLike(rng.Int63(), jobTraces)
		truth := namePairs(g.L1, g.L2, g.Truth)
		if in.truth == nil {
			in.truth = truth
		} else if checkPairs(truth, in.truth) != nil {
			return nil, fmt.Errorf("pair %d: generator truth %v differs from %v", k, truth, in.truth)
		}
		if k < jobSources {
			l1, err := encode(g.L1, "csv")
			if err != nil {
				return nil, err
			}
			prefix, err := json.Marshal(struct {
				Log1     server.LogPayload `json:"log1"`
				Patterns []string          `json:"patterns"`
				Truth    map[string]string `json:"truth"`
			}{server.LogPayload{Format: "csv", Data: string(l1)}, g.Patterns, truth})
			if err != nil {
				return nil, err
			}
			prefix = append(prefix[:len(prefix)-1], `,"log2":{"format":"csv","data":"`...)
			in.sources = append(in.sources, jobSource{l1: l1, patterns: g.Patterns, prefix: prefix})
			in.l1Bytes = len(l1)
		}
		csv, err := encode(g.L2, "csv")
		if err != nil {
			return nil, err
		}
		in.l2Bytes = len(csv)
		header, blocks := splitCSV(string(csv))
		in.header = header
		esc := make([]string, len(blocks))
		for i, b := range blocks {
			esc[i] = jsonEscape(b)
		}
		in.blocks = append(in.blocks, blocks)
		in.escaped = append(in.escaped, esc)
		src := in.sources[k%jobSources]
		ref, err := libMatch(src.l1, csv, src.patterns)
		if err != nil {
			return nil, fmt.Errorf("base %d reference: %w", k, err)
		}
		in.ref = append(in.ref, ref)
	}
	return in, nil
}

// libMatch is the in-process reference: eventmatch.ReadLog ×2 and
// eventmatch.Match with the daemon's defaults (heuristic-advanced, one
// search worker).
func libMatch(log1, log2 []byte, patterns []string) (map[string]string, error) {
	l1, err := eventmatch.ReadLog(bytes.NewReader(log1), "csv")
	if err != nil {
		return nil, err
	}
	l2, err := eventmatch.ReadLog(bytes.NewReader(log2), "csv")
	if err != nil {
		return nil, err
	}
	res, err := eventmatch.Match(l1, l2, eventmatch.Config{Patterns: patterns, Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Pairs, nil
}

// splitCSV splits a "case,activity" CSV into its header line and one block
// of rows per case (cases are contiguous, as logio.WriteCSV writes them).
func splitCSV(s string) (string, []string) {
	lines := strings.SplitAfter(s, "\n")
	header := lines[0]
	var blocks []string
	var cur strings.Builder
	curCase := ""
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		c := ln[:strings.IndexByte(ln, ',')]
		if c != curCase && cur.Len() > 0 {
			blocks = append(blocks, cur.String())
			cur.Reset()
		}
		curCase = c
		cur.WriteString(ln)
	}
	if cur.Len() > 0 {
		blocks = append(blocks, cur.String())
	}
	return header, blocks
}

func jsonEscape(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b[1 : len(b)-1])
}

// rotation is job n's target base and how far its traces are rotated.
func (in *jobInputs) rotation(n int) (base, rot int) {
	base = n % len(in.blocks)
	return base, (n / len(in.blocks)) % len(in.blocks[base])
}

// source is the source log base k is matched against.
func (in *jobInputs) source(base int) *jobSource { return &in.sources[base%len(in.sources)] }

// body is job n's JSON submission.
func (in *jobInputs) body(n int) []byte {
	base, rot := in.rotation(n)
	blocks := in.escaped[base]
	prefix := in.source(base).prefix
	var b bytes.Buffer
	b.Grow(len(prefix) + in.l2Bytes + 4096)
	b.Write(prefix)
	b.WriteString(jsonEscape(in.header))
	for i := range blocks {
		b.WriteString(blocks[(rot+i)%len(blocks)])
	}
	b.WriteString(`"}}`)
	return b.Bytes()
}

// log2 is job n's target log as the daemon receives it.
func (in *jobInputs) log2(n int) []byte {
	base, rot := in.rotation(n)
	blocks := in.blocks[base]
	var b bytes.Buffer
	b.WriteString(in.header)
	for i := range blocks {
		b.WriteString(blocks[(rot+i)%len(blocks)])
	}
	return b.Bytes()
}

// jobRecord is one measured job round trip.
type jobRecord struct {
	n, base                 int
	t0, t1, t2, t3          time.Time // submit start, submit done, terminal seen, result done
	created, started, ended time.Time // server-side stamps
	polls                   int
	traced                  bool
	res                     server.JobResult
	err                     error
}

func (j *jobRecord) latencyMS() float64 { return float64(j.t3.Sub(j.t0)) / 1e6 }

// jobClient is one closed-loop client over its own connection.
type jobClient struct {
	hc  *http.Client
	c   *client.Client
	in  *jobInputs
	tr  *Tracer
	tck time.Duration
}

func (jc *jobClient) close() { jc.hc.CloseIdleConnections() }

// newJobClients makes the workload's jobClients clients, each polling every
// tick and recording spans (when traced) into tr.
func newJobClients(base string, in *jobInputs, tick time.Duration, tr *Tracer) []*jobClient {
	cs := make([]*jobClient, jobClients)
	for i := range cs {
		hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		cs[i] = &jobClient{hc: hc, c: client.New(base, hc), in: in, tck: tick, tr: tr}
	}
	return cs
}

// do runs job n: submit, poll every tick until terminal, fetch the result.
func (jc *jobClient) do(ctx context.Context, base string, n int, traced bool) jobRecord {
	rec := jobRecord{n: n, traced: traced}
	body := jc.in.body(n)
	rec.base, _ = jc.in.rotation(n)
	var tr *Tracer
	if traced {
		tr = jc.tr
	}
	op := tr.Begin(n, 0, "op")
	defer tr.End(op)

	rec.t0 = time.Now()
	sp := tr.Begin(n, op, "server.submit")
	st, err := jc.submit(ctx, base, body)
	tr.End(sp)
	rec.t1 = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}

	sp = tr.Begin(n, op, "server.wait")
	for !st.State.Terminal() {
		time.Sleep(jc.tck)
		rec.polls++
		if st, err = jc.c.Status(ctx, st.ID); err != nil {
			tr.End(sp)
			rec.err = fmt.Errorf("status: %w", err)
			return rec
		}
	}
	tr.End(sp)
	rec.t2 = time.Now()

	sp = tr.Begin(n, op, "server.result")
	rec.res, err = jc.c.Result(ctx, st.ID)
	tr.End(sp)
	rec.t3 = time.Now()
	if err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}
	rec.created, _ = time.Parse(time.RFC3339Nano, st.Created)
	rec.started, _ = time.Parse(time.RFC3339Nano, st.Started)
	rec.ended, _ = time.Parse(time.RFC3339Nano, st.Finished)
	if st.State != server.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return rec
}

func (jc *jobClient) submit(ctx context.Context, base string, body []byte) (server.JobStatus, error) {
	var st server.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := jc.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e) // best effort: the status code is the error
		return st, fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// check verifies a finished job: untruncated, and the same pairs as the
// in-process match of its base target log.
func (in *jobInputs) check(rec *jobRecord) error {
	if rec.err != nil {
		return rec.err
	}
	if rec.res.Truncated {
		return fmt.Errorf("job %d truncated (%s)", rec.n, rec.res.StopReason)
	}
	if rec.res.Quality == nil {
		return fmt.Errorf("job %d: result carries no quality block", rec.n)
	}
	return checkPairs(rec.res.Pairs, in.ref[rec.base])
}

// closedLoop runs the clients from job number first until the window has
// passed and at least minJobs were done, or for exactly perClient jobs each
// when perClient > 0. When the minJobs-th job finishes it calls atMin once.
// It returns the records and the wall time.
func closedLoop(ctx context.Context, base string, clients []*jobClient, first *atomic.Int64,
	window time.Duration, minJobs, perClient int, trace bool, atMin func()) ([]jobRecord, time.Duration) {
	var (
		mu   sync.Mutex
		recs []jobRecord
		wg   sync.WaitGroup
		done atomic.Int64
	)
	start := time.Now()
	for _, jc := range clients {
		wg.Add(1)
		go func(jc *jobClient) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				if perClient > 0 && i == perClient {
					return
				}
				if perClient == 0 && time.Since(start) >= window && done.Load() >= int64(minJobs) {
					return
				}
				rec := jc.do(ctx, base, int(first.Add(1)-1), trace && i%2 == 0)
				if done.Add(1) == int64(minJobs) && atMin != nil {
					atMin()
				}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(jc)
	}
	wg.Wait()
	return recs, time.Since(start)
}

func runDaemonJobs(ctx context.Context, cfg runConfig) (*outcome, error) {
	in, err := newJobInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{rep: newReport()}

	// Set-up, repeated: a fresh daemon and the warm-up jobs.
	var (
		warm  []jobRecord
		nextN atomic.Int64
	)
	d, setup, err := setUp(ctx, cfg, func(d *daemon) error {
		nextN.Store(0)
		clients := newJobClients(d.base, in, time.Millisecond, nil)
		warm, _ = closedLoop(ctx, d.base, clients, &nextN, 0, 0, warmupJobs, false, nil)
		for _, jc := range clients {
			jc.close()
		}
		for i := range warm {
			if err := in.check(&warm[i]); err != nil {
				return fmt.Errorf("warm-up job: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Poll at 1/25 of the warm-up median latency, within [0.5ms, 5ms].
	var warmLat []float64
	for i := range warm {
		warmLat = append(warmLat, warm[i].latencyMS())
	}
	tick := time.Duration(median(warmLat) / 25 * float64(time.Millisecond))
	tick = min(max(tick, 500*time.Microsecond), 5*time.Millisecond)

	var tr *Tracer
	if cfg.trace {
		tr = newTracer()
		out.tracer = tr
	}
	clients := newJobClients(d.base, in, tick, tr)
	for _, jc := range clients {
		defer jc.close()
	}
	before, err := d.sample(ctx)
	if err != nil {
		return nil, err
	}
	// The daemon keeps finished jobs (and their logs) up to a cap, so its
	// peak RSS is read at a fixed job count, not at the end of the window.
	var (
		rss    float64
		rssErr error
	)
	recs, wall := closedLoop(ctx, d.base, clients, &nextN, cfg.window, minOps, 0, cfg.trace,
		func() { rss, rssErr = d.peakRSS() })
	if rssErr != nil {
		return nil, rssErr
	}
	after, err := d.sample(ctx)
	if err != nil {
		return nil, err
	}

	var (
		fSum float64
		lats []float64
		oks  int
	)
	for i := range recs {
		rec := &recs[i]
		out.attempted++
		lats = append(lats, rec.latencyMS())
		if err := in.check(rec); err != nil {
			out.failed++
			out.fail("job %d: %v", rec.n, err)
			continue
		}
		fSum += rec.res.Quality.FMeasure
		oks++
	}
	if hits := counterDelta(before, after, "server.problemcache_hits"); hits != 0 {
		out.fail("invariant: %v problem-cache hits during the window, want 0", hits)
	}
	rp, err := in.sampleCheck(ctx, recs, tr, out)
	if err != nil {
		return nil, err
	}

	out.stamp = map[string]any{
		"clients":        jobClients,
		"events_per_log": len(in.truth),
		"traces_per_log": jobTraces,
		"log1_bytes":     in.l1Bytes,
		"log2_bytes":     in.l2Bytes,
		"source_logs":    jobSources,
		"target_logs":    jobBases,
		"poll_tick_ms":   float64(tick) / 1e6,
		"daemon_args":    strings.Join(daemonArgs("DIR"), " "),
		"sample_checks":  rp.checked,
		"setup_repeats":  setupRepeats,
	}
	if !cfg.trace {
		err := out.rep.setEndToEnd(lats, out.attempted, oks, float64(len(recs))/wall.Seconds(), len(recs),
			fSum, oks, median(setup), len(setup), rss)
		return out, err
	}
	jobsLayers(out.rep, recs, before, after, tick)
	out.rep.setReplicaLayers(tr, rp, "logio.read.log2")
	out.rep.Set("pattern.cache_hit_ratio", "ratio",
		ratio(rp.cnt.cacheHits, rp.cnt.cacheHits+rp.cnt.cacheMisses), rp.ops)
	out.rep.completeLayers()
	return out, nil
}

// sampleCheck re-matches up to sampleChecks measured jobs in process on the
// exact bytes the daemon received. Under tracing it also runs them through
// the traced library path, whose spans and counters give the layers the
// daemon does not expose.
func (in *jobInputs) sampleCheck(ctx context.Context, recs []jobRecord, tr *Tracer, out *outcome) (replica, error) {
	var rp replica
	step := max(len(recs)/sampleChecks, 1)
	for i := 0; i < len(recs) && rp.checked < sampleChecks; i += step {
		rec := &recs[i]
		if rec.err != nil {
			continue
		}
		log2 := in.log2(rec.n)
		src := in.source(rec.base)
		want, err := libMatch(src.l1, log2, src.patterns)
		if err != nil {
			return rp, err
		}
		if err := checkPairs(rec.res.Pairs, want); err != nil {
			out.fail("job %d vs in-process match on the same bytes: %v", rec.n, err)
		}
		rp.checked++
		if tr != nil {
			lin := libInput{log1: src.l1, log2: log2, format1: "csv", format2: "csv", patterns: src.patterns, truth: in.truth}
			if err := rp.run(ctx, tr, lin, eventmatch.AlgoHeuristicAdvanced, len(log2)); err != nil {
				return rp, err
			}
		}
	}
	return rp, nil
}

// jobsLayers reports daemon-jobs' per-layer metrics: server phases from the
// client's timestamps and the jobs' server-side stamps, search and store
// counters from the daemon's registry, and ingest/build from the in-process
// replicas of the sampled jobs.
func jobsLayers(r *Report, recs []jobRecord, a, b daemonSample, tick time.Duration) {
	var submit, wait, run, result, polls, total, plain, traced []float64
	for i := range recs {
		rec := &recs[i]
		if rec.err != nil {
			continue
		}
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		submit = append(submit, ms(rec.t1.Sub(rec.t0)))
		wait = append(wait, ms(rec.started.Sub(rec.created)))
		run = append(run, ms(rec.ended.Sub(rec.started)))
		result = append(result, ms(rec.t3.Sub(rec.t2)))
		polls = append(polls, float64(rec.polls))
		total = append(total, rec.latencyMS())
		if rec.traced {
			traced = append(traced, rec.latencyMS())
		} else {
			plain = append(plain, rec.latencyMS())
		}
	}
	n := len(total)
	r.Set("server.submit_ms", "ms", mean(submit), n)
	r.Set("server.queue_wait_ms", "ms", mean(wait), n)
	r.Set("server.run_ms", "ms", mean(run), n)
	r.Set("server.result_ms", "ms", mean(result), n)
	r.Set("server.polls_per_job", "count", mean(polls), n)
	r.Set("server.poll_tick_ms", "ms", float64(tick)/1e6, n)
	hits, misses := counterDelta(a, b, "server.logcache_hits"), counterDelta(a, b, "server.logcache_misses")
	r.Set("server.logcache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	hits, misses = counterDelta(a, b, "server.problemcache_hits"), counterDelta(a, b, "server.problemcache_misses")
	r.Set("server.problemcache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	r.setDaemonMetrics(a, b, n)
	accounted := mean(submit) + mean(wait) + mean(run) + mean(result)
	r.Set("trace.span_coverage", "ratio", ratio(accounted, mean(total)), n)
	r.Set("trace.op_self_ms", "ms", mean(total)-accounted, n)
	r.Set("trace.overhead_pct", "%", overheadPct(plain, traced), len(traced))
}
