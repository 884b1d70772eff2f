package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"eventmatch"
	"eventmatch/internal/gen"
	"eventmatch/internal/server"
	"eventmatch/internal/server/client"
)

// The daemon-stream workload: streaming sessions over a RealLike source log
// (1,000 traces) with the default exact re-search, fed target traces in
// chunks of streamChunk by one closed-loop client.
const (
	streamL1Traces = 1000
	streamChunk    = 8
	// streamAppends is every session's length. Runs are made of whole
	// sessions: latency grows along a session, so every session must have
	// the same shape whatever the program's speed. A session's first append
	// (the first search, on 8 traces) costs several later ones; at 50 appends
	// first appends stay well below the 5% of samples beyond p95.
	streamAppends = 50
	// streamSessionsPerSecond sizes a run: --seconds S runs S×1.1 sessions
	// (at least enough for minOps appends), which takes about S seconds on a
	// 2-CPU x86-64 machine. The count is fixed rather than timed, so every
	// run of a seed does the same sessions whatever the program's speed.
	streamSessionsPerSecond = 1.1
	// streamDaemons fresh daemons serve a run's sessions in equal turns, and
	// peak_rss_mb is the median of their peaks. A session's first search
	// (on 8 traces) is occasionally twenty times the usual and its frontier
	// alone can double the daemon's RSS, so one daemon's peak would follow
	// the rarest session of the run.
	streamDaemons = 3
)

// streamSessions is the number of sessions a run of the given window holds.
func streamSessions(window time.Duration) int {
	return max((minOps+streamAppends-1)/streamAppends, int(window.Seconds()*streamSessionsPerSecond))
}

// streamInputs generates the sessions of one run. Session s matches its own
// RealLike pair, so a run averages over as many instances as it has
// sessions: A* effort differs twofold between instances.
type streamInputs struct {
	// seed0 is the generator seed of session 0; session s uses seed0+s.
	seed0 int64
}

func newStreamInputs(seed int64) *streamInputs {
	return &streamInputs{seed0: rand.New(rand.NewSource(seed)).Int63()}
}

// sessionInput is one session's source log, patterns, ground truth and
// target traces.
type sessionInput struct {
	l1       []byte
	patterns []string
	truth    map[string]string
	lines    []string
}

func (in *streamInputs) session(s int) (sessionInput, error) {
	g := gen.RealLike(in.seed0+int64(s), streamL1Traces)
	l1, err := encode(g.L1, "csv")
	if err != nil {
		return sessionInput{}, err
	}
	return sessionInput{l1: l1, patterns: g.Patterns, truth: namePairs(g.L1, g.L2, g.Truth),
		lines: traceLines(g.L2)[:streamAppends*streamChunk]}, nil
}

// sessionRecord is one measured session.
type sessionRecord struct {
	open       time.Duration
	appendLoop time.Duration
	// Per append: client round trip of the append, then until the watch
	// delivered an update covering it.
	appendMS, publishMS, latencyMS []float64
	updates, truncated             int
	final                          *server.SessionUpdate
	traced                         bool
	cacheHits, cacheMisses         float64
}

// run drives one session: open, streamAppends closed-loop appends each
// waiting for its covering update, close.
func (in *sessionInput) run(ctx context.Context, c *client.Client, traced bool) (sessionRecord, error) {
	rec := sessionRecord{traced: traced}
	t0 := time.Now()
	st, err := c.OpenSession(ctx, server.OpenSessionRequest{
		Log1:     server.LogPayload{Format: "csv", Data: string(in.l1)},
		Patterns: in.patterns,
	})
	rec.open = time.Since(t0)
	if err != nil {
		return rec, fmt.Errorf("open: %w", err)
	}
	id := st.ID

	wctx, cancel := context.WithCancel(ctx)
	ups := make(chan server.SessionUpdate, 2*streamAppends) // every update of the session fits
	watchErr := make(chan error, 1)
	go func() {
		defer close(ups)
		watchErr <- c.WatchSession(wctx, id, func(u server.SessionUpdate) bool {
			ups <- u
			return !u.Final
		})
	}()
	defer func() {
		cancel()
		for range ups { // wait for the watcher to exit
		}
	}()

	rev := 0
	loop := time.Now()
	for a := 0; a < streamAppends; a++ {
		t0 := time.Now()
		resp, err := c.AppendSession(ctx, id, in.lines[a*streamChunk:(a+1)*streamChunk])
		t1 := time.Now()
		if err != nil {
			return rec, fmt.Errorf("append %d: %w", a, err)
		}
		for rev < resp.Accepted {
			u, ok := <-ups
			if !ok {
				return rec, fmt.Errorf("watch ended before revision %d: %v", resp.Accepted, <-watchErr)
			}
			if u.Revision > rev {
				rev = u.Revision
				rec.updates++
				if u.Truncated {
					rec.truncated++
				}
			}
		}
		t2 := time.Now()
		rec.appendMS = append(rec.appendMS, float64(t1.Sub(t0))/1e6)
		rec.publishMS = append(rec.publishMS, float64(t2.Sub(t1))/1e6)
		rec.latencyMS = append(rec.latencyMS, float64(t2.Sub(t0))/1e6)
	}
	rec.appendLoop = time.Since(loop)

	if traced {
		// The daemon's cache.* gauges follow the cache searched last: this
		// session's.
		snap, err := c.Metrics(ctx)
		if err != nil {
			return rec, err
		}
		rec.cacheHits, rec.cacheMisses = float64(snap.Gauge("cache.hits")), float64(snap.Gauge("cache.misses"))
	}

	if st, err = c.CloseSession(ctx, id); err == nil && !st.State.Terminal() {
		st, err = c.WaitSessionTerminal(ctx, id, 5*time.Millisecond)
	}
	if err != nil {
		return rec, fmt.Errorf("close: %w", err)
	}
	for range ups { // the final marker ends the watch
	}
	if err := <-watchErr; err != nil {
		return rec, fmt.Errorf("watch: %w", err)
	}
	if st.State != server.SessionClosed || st.Update == nil {
		return rec, fmt.Errorf("session %s ended %s without a final mapping", id, st.State)
	}
	rec.final = st.Update
	return rec, nil
}

// batch is the in-process batch match over the source log and every
// appended trace: the mapping a session's final update must equal.
func (in *sessionInput) batch() (*eventmatch.Result, eventmatch.Quality, error) {
	l1, err := eventmatch.ReadLog(bytes.NewReader(in.l1), "csv")
	if err != nil {
		return nil, eventmatch.Quality{}, err
	}
	l2 := eventmatch.LogFromStrings(in.lines...)
	res, err := eventmatch.Match(l1, l2, eventmatch.Config{
		Algorithm: eventmatch.AlgoExact, Patterns: in.patterns, Workers: 1,
	})
	if err != nil {
		return nil, eventmatch.Quality{}, err
	}
	truth, err := resolveTruth(in.truth, l1, l2)
	if err != nil {
		return nil, eventmatch.Quality{}, err
	}
	return res, eventmatch.Evaluate(res.Mapping, truth), nil
}

// checkSession verifies a closed session: one update per append, none
// truncated, and a final mapping equal to the batch match.
func checkSession(rec *sessionRecord, lines int, want map[string]string) error {
	switch {
	case rec.updates != streamAppends:
		return fmt.Errorf("%d updates for %d appends, want one each", rec.updates, streamAppends)
	case rec.truncated != 0:
		return fmt.Errorf("%d truncated updates", rec.truncated)
	case rec.final.Truncated:
		return fmt.Errorf("final update truncated (%s)", rec.final.StopReason)
	case rec.final.Revision != lines:
		return fmt.Errorf("final revision %d, want %d", rec.final.Revision, lines)
	}
	return checkPairs(rec.final.Pairs, want)
}

func runDaemonStream(ctx context.Context, cfg runConfig) (*outcome, error) {
	in := newStreamInputs(cfg.seed)
	out := &outcome{rep: newReport()}
	d, setup, err := setUp(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer func() { d.stop() }() // the daemon of the last turn
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := client.New(d.base, hc)
	var tr *Tracer
	if cfg.trace {
		tr = newTracer()
		out.tracer = tr
	}

	var (
		recs       []sessionRecord
		opens      []float64
		lat        []float64
		loop       time.Duration
		fSum       float64
		oks, appls int
		rp         replica
		events     int
		l1Bytes    int
		rss        []float64
		total      daemonSample // the daemons' summed growth
		before     daemonSample
	)
	// turn ends the current daemon's turn: it records the daemon's growth
	// and peak RSS, and with next set replaces it by a fresh daemon.
	turn := func(next bool) error {
		after, err := d.sample(ctx)
		if err != nil {
			return err
		}
		total.add(growth(before, after))
		peak, err := d.peakRSS()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		if !next {
			return nil
		}
		if err := d.stop(); err != nil {
			return err
		}
		if d, err = startDaemon(ctx, cfg.daemon, cfg.workdir); err != nil {
			return err
		}
		setup = append(setup, d.startup.Seconds())
		c = client.New(d.base, hc)
		before, err = d.sample(ctx)
		return err
	}
	if before, err = d.sample(ctx); err != nil {
		return nil, err
	}
	sessions := streamSessions(cfg.window)
	for s := 0; s < sessions && ctx.Err() == nil; s++ {
		if s > 0 && s*streamDaemons/sessions != (s-1)*streamDaemons/sessions {
			if err := turn(true); err != nil {
				return nil, err
			}
		}
		// Under tracing every other session is traced: its cache counters are
		// read and it is replayed in process. Sessions run in pairs on the
		// same instance, so the untraced twin gives the overhead baseline.
		traced, instance := false, s
		if cfg.trace {
			traced, instance = s%2 == 0, s/2
		}
		si, err := in.session(instance)
		if err != nil {
			return nil, err
		}
		events, l1Bytes = len(si.truth), l1Bytes+len(si.l1)
		rec, err := si.run(ctx, c, traced)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", s, err)
		}
		recs = append(recs, rec)
		opens = append(opens, rec.open.Seconds())
		lat = append(lat, rec.latencyMS...)
		loop += rec.appendLoop
		appls += streamAppends

		res, q, err := si.batch()
		if err != nil {
			return nil, fmt.Errorf("session %d batch match: %w", s, err)
		}
		out.attempted += streamAppends
		if err := checkSession(&rec, len(si.lines), res.Pairs); err != nil {
			out.failed += streamAppends
			out.fail("session %d: %v", s, err)
		} else {
			oks += streamAppends
		}
		fSum += q.FMeasure
		if traced {
			lin := libInput{log1: si.l1, log2: []byte(strings.Join(si.lines, "\n") + "\n"),
				format1: "csv", format2: "log", patterns: si.patterns, truth: si.truth}
			if err := rp.run(ctx, tr, lin, eventmatch.AlgoExact, len(si.l1)); err != nil {
				return nil, err
			}
		}
	}
	if err := turn(false); err != nil {
		return nil, err
	}

	out.stamp = map[string]any{
		"sessions":          len(recs),
		"appends_per_sess":  streamAppends,
		"traces_per_append": streamChunk,
		"events_per_log":    events,
		"log1_traces":       streamL1Traces,
		"log1_bytes_mean":   l1Bytes / len(recs),
		"daemon_args":       strings.Join(daemonArgs("DIR"), " "),
		"setup_repeats":     setupRepeats,
		"daemons":           streamDaemons,
		"daemon_peaks_mb":   rss,
	}
	if !cfg.trace {
		err := out.rep.setEndToEnd(lat, out.attempted, oks,
			float64(appls*streamChunk)/loop.Seconds(), appls, fSum, len(recs),
			median(setup)+median(opens), len(setup)+len(opens), median(rss))
		out.rep.samples["peak_rss_mb"] = len(rss)
		return out, err
	}
	streamLayers(out.rep, recs, daemonSample{}, total, appls)
	out.rep.setReplicaLayers(tr, rp, "logio.read.log1")
	out.rep.completeLayers()
	return out, nil
}

// streamLayers reports daemon-stream's per-layer metrics.
func streamLayers(r *Report, recs []sessionRecord, a, b daemonSample, appends int) {
	var appendMS, publishMS, lat, plain, traced []float64
	var updates, truncated, hits, misses float64
	for i := range recs {
		rec := &recs[i]
		appendMS = append(appendMS, rec.appendMS...)
		publishMS = append(publishMS, rec.publishMS...)
		lat = append(lat, rec.latencyMS...)
		updates += float64(rec.updates)
		truncated += float64(rec.truncated)
		if rec.traced {
			traced = append(traced, rec.latencyMS...)
			hits += rec.cacheHits
			misses += rec.cacheMisses
		} else {
			plain = append(plain, rec.latencyMS...)
		}
	}
	r.Set("stream.append_ms", "ms", mean(appendMS), len(appendMS))
	r.Set("stream.publish_ms", "ms", mean(publishMS), len(publishMS))
	r.Set("stream.updates_per_append", "count", ratio(updates, float64(appends)), appends)
	r.Set("stream.truncated_ratio", "ratio", ratio(truncated, updates), int(updates))
	r.setDaemonMetrics(a, b, appends)
	// The daemon's frontier gauge is a maximum over every re-search.
	r.Set("match.frontier_peak", "count", float64(b.snap.Gauge("astar.frontier_peak")), appends)
	r.Set("pattern.cache_hit_ratio", "ratio", ratio(hits, hits+misses), len(recs)/2)
	accounted := mean(appendMS) + mean(publishMS)
	r.Set("trace.span_coverage", "ratio", ratio(accounted, mean(lat)), len(lat))
	r.Set("trace.op_self_ms", "ms", mean(lat)-accounted, len(lat))
	r.Set("trace.overhead_pct", "%", overheadPct(plain, traced), len(traced))
}
