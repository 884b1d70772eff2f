package server

import (
	"context"
	"time"

	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"
	"eventmatch/internal/metrics"

	"eventmatch"
)

// runJob executes one admitted job on a jobQueue worker. Every user-facing
// validation already happened at submit time, so errors here are engine
// errors and land the job in StateFailed.
func (s *Server) runJob(j *job) {
	if !j.start() { // canceled while queued
		return
	}
	s.jobsRunning.Add(1)
	defer s.jobsRunning.Add(-1)
	ts := s.tenantStats(j.spec.tenant)
	// j.started was written by j.start() on this same goroutine. The wait
	// observation lands in the global timer and the tenant's own — the
	// per-tenant wait distribution is the fairness evidence (a starved
	// tenant shows up as an unbounded tail here).
	wait := j.started.Sub(j.created)
	s.waitTimer.Observe(wait)
	ts.waitTimer.Observe(wait)
	if s.testHookBeforeRun != nil {
		s.testHookBeforeRun(j)
	}
	res, err := s.execute(j)
	d := time.Since(j.started)
	s.runTimer.Observe(d)
	s.noteJobDuration(d)
	if err == nil {
		// Result artifact + binding record land before the done transition:
		// a replay that finds the result can serve it even when the final
		// state record was lost to a crash.
		s.persistResult(j, res)
	}
	j.finish(res, err)
	if err != nil {
		s.failed.Inc()
		ts.failed.Inc()
	} else {
		s.completed.Inc()
		ts.completed.Inc()
	}
	j.cancel() // release the job context in every terminal path
}

// execute dispatches the spec to the matching engine, mirroring the
// algorithm dispatch of the eventmatch facade. The pattern-based algorithms
// go through the problem cache so repeated jobs over the same log pair reuse
// the built problem and its warm frequency caches; the closed-form baselines
// are cheap and run through the facade directly.
func (s *Server) execute(j *job) (*JobResult, error) {
	spec := j.spec
	switch spec.algorithm {
	case eventmatch.AlgoVertex, eventmatch.AlgoIterative, eventmatch.AlgoEntropy:
		r, err := eventmatch.MatchContext(j.ctx, spec.l1, spec.l2, eventmatch.Config{
			Algorithm:   spec.algorithm,
			MaxDuration: spec.timeout,
			Telemetry:   s.reg,
		})
		if err != nil {
			return nil, err
		}
		return s.buildResult(j, r.Mapping, r.Stats), nil
	}

	mode, bound, search := searchFor(spec.algorithm)
	pr, err := s.prs.get(problemKey(spec.h1, spec.h2, mode, spec.patterns), func() (*match.Problem, error) {
		return match.BuildProblem(spec.l1, spec.l2, spec.bound, mode)
	})
	if err != nil {
		return nil, err
	}
	m, st, err := search(pr, j.ctx, match.Options{
		Bound:         bound,
		MaxDuration:   spec.timeout,
		MaxGenerated:  spec.maxGenerated,
		MaxFrontier:   spec.maxFrontier,
		Workers:       spec.workers,
		Telemetry:     s.reg,
		Progress:      j.setProgress,
		ProgressEvery: s.cfg.ProgressEvery,
		// Durability: periodic best-so-far snapshots to the journal, and the
		// recovered checkpoint (if any) as a floor on the re-run's result.
		Checkpoint:      s.checkpointHook(j),
		CheckpointEvery: s.cfg.CheckpointEvery,
		Seed:            spec.seed,
	})
	if err != nil {
		return nil, err
	}
	return s.buildResult(j, m, st), nil
}

// searchFor resolves a problem-based algorithm to its matching mode, bound
// and search entry point. Jobs and sessions dispatch through it alike.
func searchFor(algo eventmatch.Algorithm) (match.Mode, match.BoundKind, func(*match.Problem, context.Context, match.Options) (match.Mapping, match.Stats, error)) {
	switch algo {
	case eventmatch.AlgoExact:
		return match.ModePattern, match.BoundSharp, (*match.Problem).AStarContext
	case eventmatch.AlgoVertexEdge:
		return match.ModeVertexEdge, match.BoundSharp, (*match.Problem).AStarContext
	case eventmatch.AlgoExactSimpleBound:
		return match.ModePattern, match.BoundSimple, (*match.Problem).AStarContext
	case eventmatch.AlgoHeuristicSimple:
		return match.ModePattern, match.BoundSimple, (*match.Problem).GreedyExpandContext
	}
	return match.ModePattern, match.BoundSimple, (*match.Problem).HeuristicAdvancedContext
}

// buildResult assembles the wire result from an id-level mapping and the
// search stats.
func (s *Server) buildResult(j *job, m match.Mapping, st match.Stats) *JobResult {
	spec := j.spec
	res := &JobResult{
		ID:         j.id,
		Algorithm:  spec.algoName,
		Tenant:     spec.tenant,
		Pairs:      namePairs(spec.l1, spec.l2, m),
		Score:      st.Score,
		Expanded:   st.Expanded,
		Generated:  st.Generated,
		ElapsedMS:  st.Elapsed.Milliseconds(),
		Truncated:  st.Truncated,
		StopReason: st.StopReason,
		Read1:      readInfo(spec.rep1),
		Read2:      readInfo(spec.rep2),
	}
	if spec.truth != nil {
		q := metrics.Evaluate(m, spec.truth)
		res.Quality = &QualityInfo{
			Correct:   q.Correct,
			Found:     q.Found,
			Truth:     q.Truth,
			Precision: q.Precision,
			Recall:    q.Recall,
			FMeasure:  q.FMeasure,
		}
	}
	return res
}

// namePairs renders an id-level mapping as name pairs (the facade keeps its
// equivalent unexported).
func namePairs(l1, l2 *event.Log, m match.Mapping) map[string]string {
	out := make(map[string]string)
	for v1, v2 := range m {
		if v2 == event.None {
			continue
		}
		out[l1.Alphabet.Name(event.ID(v1))] = l2.Alphabet.Name(v2)
	}
	return out
}

// readInfo converts an ingestion report to its wire form; clean reads render
// as nil (omitted from the JSON).
func readInfo(rep logio.ReadReport) *ReadInfo {
	if rep.SkippedRows == 0 && rep.SkippedTraces == 0 && rep.ErrorCount == 0 {
		return nil
	}
	return &ReadInfo{
		Traces:        rep.Traces,
		SkippedRows:   rep.SkippedRows,
		SkippedTraces: rep.SkippedTraces,
		Errors:        rep.ErrorCount,
	}
}
