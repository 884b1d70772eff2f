package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eventmatch/internal/server/client"
	"eventmatch/internal/telemetry"
)

// daemon is one running eventmatchd process on a fresh data directory.
type daemon struct {
	cmd     *exec.Cmd
	dataDir string
	base    string
	done    chan error // receives the process's exit once
	// startup is exec until /healthz first answered.
	startup time.Duration
}

// daemonArgs are the flags of every benchmarked daemon: two job workers,
// sequential search inside a job, a durable journal.
func daemonArgs(dataDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-search-workers", "1",
		"-data-dir", dataDir,
		"-drain-timeout", "5s",
	}
}

// startDaemon execs eventmatchd on a fresh data directory under workdir and
// waits until /healthz answers.
func startDaemon(ctx context.Context, bin, workdir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no eventmatchd binary (-daemon)")
	}
	runs := filepath.Join(workdir, "daemon")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(runs, "data-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.Command(bin, daemonArgs(dataDir)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("starting eventmatchd: %w", err)
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, done: make(chan error, 1)}

	// The daemon prints its bound address; everything after it is drained
	// so the daemon never blocks on a full pipe.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		const marker = "listening on http://"
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				addr <- sc.Text()[i+len(marker):]
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // drain until the daemon exits
		d.done <- cmd.Wait()
	}()

	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.done:
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("eventmatchd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("eventmatchd did not report its address within 30s")
	}
	c := client.New(d.base, nil)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Health(hctx)
		cancel()
		if err == nil {
			break
		}
		if ctx.Err() != nil || time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("eventmatchd not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.startup = time.Since(t0)
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs), waits
// for it to exit and removes its data directory.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is fine
	var err error
	select {
	case err = <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		err = errors.New("eventmatchd did not drain within 20s; killed")
	}
	os.RemoveAll(d.dataDir)
	return err
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	return vmHWM(strconv.Itoa(d.cmd.Process.Pid))
}

// setupRepeats is how often a daemon workload sets up (a fresh daemon plus
// its warm-up); setup_s is the median. Exec and first-request times jitter,
// so the median is taken over more repeats than the in-process workload's.
const setupRepeats = 5

// setUp starts a fresh daemon setupRepeats times and runs warm (if any) on
// each, stopping all but the last. It returns the last daemon and every
// repeat's set-up time in seconds: exec until /healthz answered, plus the
// warm-up.
func setUp(ctx context.Context, cfg runConfig, warm func(*daemon) error) (*daemon, []float64, error) {
	var times []float64
	for r := 0; ; r++ {
		d, err := startDaemon(ctx, cfg.daemon, cfg.workdir)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if warm != nil {
			if err := warm(d); err != nil {
				d.stop()
				return nil, nil, err
			}
		}
		times = append(times, (d.startup + time.Since(t0)).Seconds())
		if r == setupRepeats-1 {
			return d, times, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// daemonSample reads the daemon's telemetry registry, its Go heap counters
// from /debug/vars, and its CPU time.
type daemonSample struct {
	snap telemetry.Snapshot
	proc procSample
}

func (d *daemon) sample(ctx context.Context) (daemonSample, error) {
	var s daemonSample
	snap, err := client.New(d.base, nil).Metrics(ctx)
	if err != nil {
		return s, err
	}
	s.snap = snap
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/debug/vars", nil)
	if err != nil {
		return s, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
			NumGC      uint32
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return s, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	s.proc.alloc = vars.Memstats.TotalAlloc
	s.proc.gcs = uint64(vars.Memstats.NumGC)
	if s.proc.cpu, err = procCPU(d.cmd.Process.Pid); err != nil {
		return s, err
	}
	return s, nil
}

// growth is the change from a to b: counters, timers and process counters
// are differences, gauges b's values.
func growth(a, b daemonSample) daemonSample {
	g := daemonSample{
		snap: telemetry.Snapshot{Counters: map[string]int64{}, Gauges: b.snap.Gauges, Timers: map[string]telemetry.TimerValue{}},
		proc: procSample{cpu: b.proc.cpu - a.proc.cpu, alloc: b.proc.alloc - a.proc.alloc, gcs: b.proc.gcs - a.proc.gcs},
	}
	for k, v := range b.snap.Counters {
		g.snap.Counters[k] = v - a.snap.Counters[k]
	}
	for k, v := range b.snap.Timers {
		w := a.snap.Timers[k]
		g.snap.Timers[k] = telemetry.TimerValue{Count: v.Count - w.Count, TotalNs: v.TotalNs - w.TotalNs}
	}
	return g
}

// add accumulates another daemon's growth into s: counters, timers and
// process counters add up, gauges keep the maximum.
func (s *daemonSample) add(o daemonSample) {
	if s.snap.Counters == nil {
		s.snap = telemetry.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Timers: map[string]telemetry.TimerValue{}}
	}
	for k, v := range o.snap.Counters {
		s.snap.Counters[k] += v
	}
	for k, v := range o.snap.Gauges {
		s.snap.Gauges[k] = max(s.snap.Gauges[k], v)
	}
	for k, v := range o.snap.Timers {
		w := s.snap.Timers[k]
		s.snap.Timers[k] = telemetry.TimerValue{Count: w.Count + v.Count, TotalNs: w.TotalNs + v.TotalNs}
	}
	s.proc.cpu += o.proc.cpu
	s.proc.alloc += o.proc.alloc
	s.proc.gcs += o.proc.gcs
}

// counterDelta is the growth of a counter between two samples.
func counterDelta(a, b daemonSample, name string) float64 {
	return float64(b.snap.Counter(name) - a.snap.Counter(name))
}

// timerDelta is the growth of a timer (count, total ms) between two samples.
func timerDelta(a, b daemonSample, name string) (float64, float64) {
	ca, ta := a.snap.Timer(name)
	cb, tb := b.snap.Timer(name)
	return float64(cb - ca), float64(tb-ta) / 1e6
}

// setDaemonMetrics reports the search, pattern-engine, store and proc
// metrics the daemon accumulated between two samples, per op.
func (r *Report) setDaemonMetrics(a, b daemonSample, ops int) {
	n := float64(ops)
	_, astarMS := timerDelta(a, b, "astar.time")
	_, advMS := timerDelta(a, b, "advanced.time")
	r.Set("match.search_ms", "ms", ratio(astarMS+advMS, n), ops)
	_, scanMS := timerDelta(a, b, "engine.scan_time")
	r.setSearchMetrics(searchCounters{
		expanded:      counterDelta(a, b, "astar.expanded"),
		generated:     counterDelta(a, b, "astar.generated"),
		boundEvals:    counterDelta(a, b, "astar.bound_evals"),
		rounds:        counterDelta(a, b, "advanced.rounds"),
		scans:         counterDelta(a, b, "engine.scans"),
		tracesScanned: counterDelta(a, b, "engine.traces_scanned"),
		indexSkips:    counterDelta(a, b, "pattern.index_skips"),
		scanMS:        scanMS,
	}, ops)
	fsyncs, fsyncMS := timerDelta(a, b, "store.journal_fsync")
	r.Set("store.fsyncs_per_op", "count", ratio(fsyncs, n), ops)
	r.Set("store.fsync_ms_mean", "ms", ratio(fsyncMS, fsyncs), int(fsyncs))
	r.setProcMetrics(a.proc, b.proc, ops)
}
