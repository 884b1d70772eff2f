package tenant

import (
	"testing"
	"time"
)

// t0 is an arbitrary fixed origin; every test drives the limiter with an
// injected clock derived from it. No test calls time.Now() — the limiter
// core must be fully deterministic under an injected clock.
var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func TestParseRates(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Rates
		wantErr bool
	}{
		{in: "", want: nil},
		{in: "  ", want: nil},
		{in: "10/s", want: Rates{time.Second: 10}},
		{in: "10/s,200/m", want: Rates{time.Second: 10, time.Minute: 200}},
		{in: "5/1m30s,1/h", want: Rates{90 * time.Second: 5, time.Hour: 1}},
		{in: "10/s,,200/m", want: Rates{time.Second: 10, time.Minute: 200}},
		{in: "10", wantErr: true},
		{in: "0/s", wantErr: true},
		{in: "-3/s", wantErr: true},
		{in: "x/s", wantErr: true},
		{in: "10/bogus", wantErr: true},
		{in: "10/-5s", wantErr: true},
		{in: "10/s,20/s", wantErr: true}, // duplicate window
	} {
		got, err := ParseRates(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseRates(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRates(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseRates(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for win, limit := range tc.want {
			if got[win] != limit {
				t.Errorf("ParseRates(%q)[%v] = %d, want %d", tc.in, win, got[win], limit)
			}
		}
	}
}

func TestParseWeights(t *testing.T) {
	w, err := ParseWeights("alpha=3, beta=1")
	if err != nil {
		t.Fatal(err)
	}
	if w["alpha"] != 3 || w["beta"] != 1 {
		t.Fatalf("ParseWeights = %v", w)
	}
	if w, err := ParseWeights(""); err != nil || w != nil {
		t.Fatalf("empty weights = %v, %v", w, err)
	}
	for _, bad := range []string{"alpha", "alpha=0", "alpha=-1", "alpha=x", "=3", "a b=1", "alpha=1,alpha=2"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q): want error", bad)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"a", "default", "Tenant-1", "a.b_c-d", "0"} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false, want true", good)
		}
	}
	long := make([]byte, MaxNameLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "a b", "a/b", "a\nb", "héllo", string(long)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

// TestWindowBoundaryExact pins the sliding-log boundary semantics: an event
// at t denies a second event at every instant strictly before t+window and
// admits at exactly t+window.
func TestWindowBoundaryExact(t *testing.T) {
	l := NewLimiter(Rates{time.Second: 1})
	if ok, _ := l.Allow("a", t0); !ok {
		t.Fatal("first event denied")
	}
	if ok, _ := l.Allow("a", t0.Add(time.Second-time.Nanosecond)); ok {
		t.Error("event 1ns before window edge admitted")
	}
	ok, retryAt := l.Allow("a", t0.Add(500*time.Millisecond))
	if ok {
		t.Error("event mid-window admitted")
	}
	if want := t0.Add(time.Second); !retryAt.Equal(want) {
		t.Errorf("retryAt = %v, want %v", retryAt, want)
	}
	// At exactly t+window the old event has aged out.
	if ok, _ := l.Allow("a", t0.Add(time.Second)); !ok {
		t.Error("event at exactly t+window denied")
	}
}

// TestMultiWindowInteraction drives a 2/s + 3/min config: the per-second
// window recovers quickly but the per-minute budget still runs out, and the
// denial's retry hint must come from the tighter (later) constraint.
func TestMultiWindowInteraction(t *testing.T) {
	l := NewLimiter(Rates{time.Second: 2, time.Minute: 3})
	now := t0
	// Burst 1: two admissions consume the full per-second budget.
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a", now); !ok {
			t.Fatalf("admission %d denied", i)
		}
	}
	if ok, retryAt := l.Allow("a", now); ok {
		t.Fatal("third admission within the second admitted")
	} else if want := t0.Add(time.Second); !retryAt.Equal(want) {
		t.Errorf("per-second retryAt = %v, want %v", retryAt, want)
	}
	// After the second passes, the per-second window is clear — but only one
	// admission remains in the per-minute budget.
	now = t0.Add(2 * time.Second)
	if ok, _ := l.Allow("a", now); !ok {
		t.Fatal("per-second OK admission denied")
	}
	// Per-second has 1/2 used, but per-minute is exhausted (3/3): the retry
	// hint must be minute-derived — the oldest of the three admissions (t0)
	// plus one minute.
	ok, retryAt := l.Allow("a", now.Add(3*time.Second))
	if ok {
		t.Fatal("per-minute-exhausted admission admitted")
	}
	if want := t0.Add(time.Minute); !retryAt.Equal(want) {
		t.Errorf("per-minute retryAt = %v, want %v", retryAt, want)
	}
	// Once the first admission ages out of the minute, one slot opens.
	if ok, _ := l.Allow("a", t0.Add(time.Minute)); !ok {
		t.Error("admission after minute rollover denied")
	}
}

// TestEmptyTenantFallsBackToDefault: the empty name and the literal
// "default" share one bucket, so unidentified traffic cannot evade limits by
// omitting the header.
func TestEmptyTenantFallsBackToDefault(t *testing.T) {
	l := NewLimiter(Rates{time.Minute: 2})
	if ok, _ := l.Allow("", t0); !ok {
		t.Fatal("first default admission denied")
	}
	if ok, _ := l.Allow(Default, t0); !ok {
		t.Fatal("second default admission denied")
	}
	if ok, _ := l.Allow("", t0); ok {
		t.Error("empty-name admission evaded the default tenant's budget")
	}
	// Unknown tenants are independent buckets.
	if ok, _ := l.Allow("someone-else", t0); !ok {
		t.Error("fresh tenant denied by another tenant's consumption")
	}
}

// TestClockMonotonicity: a wall clock stepping backwards must not reopen an
// exhausted window (the per-tenant monotonic clamp).
func TestClockMonotonicity(t *testing.T) {
	l := NewLimiter(Rates{time.Second: 1})
	if ok, _ := l.Allow("a", t0); !ok {
		t.Fatal("first admission denied")
	}
	// The clock steps back 10s; without the clamp, now-oldest would be
	// negative (< window) — but worse, a *larger* step could make an old
	// event look expired. Denial must persist, and the retry hint must not
	// be in the caller's past.
	ok, retryAt := l.Allow("a", t0.Add(-10*time.Second))
	if ok {
		t.Error("backwards clock reopened the window")
	}
	if want := t0.Add(time.Second); !retryAt.Equal(want) {
		t.Errorf("retryAt = %v, want %v", retryAt, want)
	}
	// Forward progress still works after the clamp.
	if ok, _ := l.Allow("a", t0.Add(time.Second)); !ok {
		t.Error("admission after window denied despite clock recovery")
	}
}

// TestNilLimiterAdmitsEverything: a server configured without rates carries
// a nil limiter, which must admit unconditionally.
func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("a", t0); !ok {
			t.Fatal("nil limiter denied")
		}
	}
}

// TestLimiterDenialRecordsNothing: denied attempts must not consume budget
// (a flooding client that is being rejected cannot push its own recovery
// time further out).
func TestLimiterDenialRecordsNothing(t *testing.T) {
	l := NewLimiter(Rates{time.Second: 2})
	if ok, _ := l.Allow("a", t0); !ok {
		t.Fatal("admission 0 denied")
	}
	if ok, _ := l.Allow("a", t0.Add(10*time.Millisecond)); !ok {
		t.Fatal("admission 1 denied")
	}
	// Hammer denials; none may count as events.
	for i := 0; i < 50; i++ {
		if ok, _ := l.Allow("a", t0.Add(20*time.Millisecond)); ok {
			t.Fatal("over-limit admission admitted")
		}
	}
	// Exactly when the first admission ages out, one slot opens — which
	// would not hold if denials were recorded.
	if ok, _ := l.Allow("a", t0.Add(time.Second)); !ok {
		t.Error("slot did not open after the first admission aged out")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{d: -time.Second, want: 1},
		{d: 0, want: 1},
		{d: time.Millisecond, want: 1},
		{d: time.Second, want: 1},
		{d: time.Second + time.Millisecond, want: 2},
		{d: 90 * time.Second, want: 90},
	} {
		if got := RetryAfter(t0, t0.Add(tc.d)); got != tc.want {
			t.Errorf("RetryAfter(+%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestLimiterTenantSweep: hostile tenant-name churn must not grow the
// tracked-tenant map without bound — fully expired histories are swept.
func TestLimiterTenantSweep(t *testing.T) {
	l := NewLimiter(Rates{time.Second: 1})
	l.maxTen = 8 // shrink the soft cap to make the sweep observable
	now := t0
	for i := 0; i < 64; i++ {
		name := "churn-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if ok, _ := l.Allow(name, now); !ok {
			t.Fatalf("fresh tenant %q denied", name)
		}
		now = now.Add(time.Second) // each prior tenant fully expires
	}
	l.mu.Lock()
	n := len(l.tenants)
	l.mu.Unlock()
	if n > l.maxTen+1 {
		t.Errorf("tracked tenants grew to %d despite sweep (cap %d)", n, l.maxTen)
	}
}
