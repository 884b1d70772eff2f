package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	tm := reg.Timer("t")
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.SetMax(10)
	sp := tm.Start()
	sp.Stop()
	tm.Observe(time.Second)
	reg.RegisterFunc("f", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil metrics must read 0, got counter=%d gauge=%d", c.Value(), g.Value())
	}
	if n, d := tm.Value(); n != 0 || d != 0 {
		t.Fatalf("nil timer must read 0, got %d/%v", n, d)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Timers) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeTimer(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("hits") != c {
		t.Fatal("Counter must return the same instance for the same name")
	}
	g := reg.Gauge("frontier")
	g.Set(7)
	g.SetMax(3) // lower: must not move
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Fatalf("gauge after SetMax = %d, want 12", g.Value())
	}
	tm := reg.Timer("scan")
	tm.Observe(3 * time.Millisecond)
	tm.Observe(2 * time.Millisecond)
	if n, d := tm.Value(); n != 2 || d != 5*time.Millisecond {
		t.Fatalf("timer = %d/%v, want 2/5ms", n, d)
	}
}

// TestSnapshotGoldenJSON pins the exact serialized shape of a snapshot: the
// -metrics-json output and the Stats.Telemetry field both expose this
// encoding, so drift here is an API break for anything scraping the files.
func TestSnapshotGoldenJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("astar.expanded").Add(42)
	reg.Counter("cache.misses").Add(7)
	reg.Gauge("astar.frontier_peak").SetMax(128)
	reg.Timer("astar.time").Observe(1500 * time.Microsecond)
	reg.RegisterFunc("cache.entries", func() int64 { return 9 })

	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "counters": {
    "astar.expanded": 42,
    "cache.misses": 7
  },
  "gauges": {
    "astar.frontier_peak": 128,
    "cache.entries": 9
  },
  "timers": {
    "astar.time": {
      "count": 1,
      "total_ns": 1500000
    }
  }
}
`
	if sb.String() != golden {
		t.Errorf("snapshot JSON drifted from golden:\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}

	// The snapshot must round-trip: external consumers decode it back.
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("astar.expanded") != 42 || snap.Gauge("cache.entries") != 9 {
		t.Fatalf("round-trip lost values: %+v", snap)
	}
	if snap.Timers["astar.time"] != (TimerValue{Count: 1, TotalNs: 1500000}) {
		t.Fatalf("round-trip lost timer: %+v", snap.Timers)
	}
	if n, total := snap.Timer("astar.time"); n != 1 || total != 1500*time.Microsecond {
		t.Fatalf("Timer accessor = (%d, %v), want (1, 1.5ms)", n, total)
	}
	if n, total := snap.Timer("absent"); n != 0 || total != 0 {
		t.Fatalf("absent timer = (%d, %v), want zeros", n, total)
	}
	var nilSnap *Snapshot
	if n, total := nilSnap.Timer("astar.time"); n != 0 || total != 0 {
		t.Fatalf("nil-snapshot timer = (%d, %v), want zeros", n, total)
	}
}

func TestSummaryLine(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("a.count").Add(1)
	reg.Gauge("m.level").Set(5)
	reg.Timer("t.span").Observe(2 * time.Millisecond)
	snap := reg.Snapshot()
	const want = "a.count=1 b.count=2 m.level=5 t.span.ms=2"
	if got := snap.Summary(); got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

// TestRegistryRaceStress hammers one registry from many goroutines — mixed
// metric resolution, updates, func-gauge registration and snapshots — and
// then checks the totals. Run under -race (CI does) this is the layer's
// race-cleanliness proof.
func TestRegistryRaceStress(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 16
		iters      = 2000
	)
	names := []string{"alpha", "beta", "gamma", "delta"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(g+i)%len(names)]
				reg.Counter(name).Inc()
				reg.Gauge(name).SetMax(int64(i))
				reg.Timer(name).Observe(time.Microsecond)
				if i%64 == 0 {
					reg.RegisterFunc("derived."+name, func() int64 {
						return reg.Counter(name).Value()
					})
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	var total int64
	for _, n := range names {
		total += snap.Counter(n)
	}
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("lost updates: counted %d, want %d", total, want)
	}
	for _, n := range names {
		if got := snap.Timers[n].Count; got != snap.Counter(n) {
			t.Fatalf("timer %s count %d != counter %d", n, got, snap.Counter(n))
		}
	}
}

func TestProgressWritesLines(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("work.items").Add(3)
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	p := NewProgress(reg, w, time.Millisecond)
	p.Start()
	time.Sleep(10 * time.Millisecond)
	p.Stop()
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	if !strings.Contains(out, "work.items=3") {
		t.Fatalf("progress output missing counter: %q", out)
	}
	if !strings.HasPrefix(out, "progress t=") {
		t.Fatalf("progress line format drifted: %q", out)
	}
	// Stop on an already-stopped reporter must be safe.
	p.Stop()
}

func TestPublishExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	if err := reg.PublishExpvar("telemetry_test_metrics"); err != nil {
		t.Fatal(err)
	}
	if err := reg.PublishExpvar("telemetry_test_metrics"); err == nil {
		t.Fatal("duplicate publish must error, not panic")
	}
	var nilReg *Registry
	if err := nilReg.PublishExpvar("telemetry_test_nil"); err != nil {
		t.Fatal("nil registry publish must be a silent no-op")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
