// Package tenant provides the multi-tenancy primitives of eventmatchd:
// tenant identity, a multi-window sliding-log rate limiter, and a
// weighted-fair admission queue. It is dependency-free (stdlib only) and
// holds no clock of its own — every time-dependent decision takes the
// current instant as an argument, so the core logic is fully deterministic
// under test.
//
// # Identity
//
// A tenant is a short name attached to each submission (HTTP callers send it
// as an X-Tenant header or ?tenant= query parameter). The empty name falls
// back to Default: unidentified traffic shares one bucket instead of evading
// policy. Names are restricted to a telemetry-safe alphabet (see ValidName)
// because they become metric name segments (server.tenant.<name>.*).
//
// # Rate limiting
//
// Limiter enforces any number of sliding windows per tenant (for example
// 10/s AND 200/min). The implementation is a sliding log: per tenant and per
// window it keeps a ring buffer of the most recent `limit` admission
// timestamps. Admission under a window of limit L is denied exactly when the
// L-th most recent admission is still younger than the window — no
// fixed-bucket boundary artifacts, and the denial carries the earliest
// instant at which the request would be admissible across every violated
// window (the HTTP layer turns that into Retry-After).
//
// # Fair queueing
//
// FairQueue is a stride scheduler over per-tenant FIFO queues: each tenant
// accumulates virtual time ("pass") inversely proportional to its weight,
// and Pop always serves the tenant with the smallest pass. A tenant that
// goes idle re-enters at the current virtual time, so it can neither hoard
// credit while idle nor be starved on return. Per-tenant depth caps bound
// how much of the aggregate queue one tenant's backlog can occupy.
package tenant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Default is the tenant every unidentified submission is accounted to.
const Default = "default"

// MaxNameLen bounds tenant names (they become telemetry name segments).
const MaxNameLen = 64

// Normalize maps the empty tenant name to Default and returns every other
// name unchanged. It does not validate; see ValidName.
func Normalize(name string) string {
	if name == "" {
		return Default
	}
	return name
}

// ValidName reports whether name is usable as a tenant identifier:
// 1..MaxNameLen characters drawn from [A-Za-z0-9._-]. The empty string is
// not valid — normalize first.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > MaxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Rates is a multi-window rate configuration: window → admissions allowed
// per window. Every window applies independently; a request is admitted only
// when all of them have headroom.
type Rates map[time.Duration]int

// ParseRates parses a comma-separated rate list of the form
// "count/window", e.g. "10/s,200/m". The window is a bare unit shorthand
// (s, m, h) or any time.ParseDuration string ("1s", "90s", "1m30s"). An
// empty input parses to nil (rate limiting disabled).
func ParseRates(s string) (Rates, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	r := Rates{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		countStr, winStr, ok := strings.Cut(part, "/")
		if !ok {
			return nil, fmt.Errorf("tenant: rate %q: want count/window (e.g. 10/s)", part)
		}
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("tenant: rate %q: count must be a positive integer", part)
		}
		win, err := parseWindow(strings.TrimSpace(winStr))
		if err != nil {
			return nil, fmt.Errorf("tenant: rate %q: %w", part, err)
		}
		if prev, dup := r[win]; dup {
			return nil, fmt.Errorf("tenant: window %v configured twice (%d and %d)", win, prev, count)
		}
		r[win] = count
	}
	if len(r) == 0 {
		return nil, nil
	}
	return r, nil
}

// parseWindow accepts the bare shorthands s/m/h and full duration strings.
func parseWindow(s string) (time.Duration, error) {
	switch s {
	case "s":
		return time.Second, nil
	case "m":
		return time.Minute, nil
	case "h":
		return time.Hour, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad window %q", s)
	}
	if d <= 0 {
		return 0, fmt.Errorf("window %q must be positive", s)
	}
	return d, nil
}

// ParseWeights parses a comma-separated weight list of the form
// "name=weight", e.g. "alpha=3,beta=1". Weights must be positive integers;
// unlisted tenants default to weight 1. An empty input parses to nil.
func ParseWeights(s string) (map[string]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	w := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tenant: weight %q: want name=weight", part)
		}
		name = strings.TrimSpace(name)
		if !ValidName(name) {
			return nil, fmt.Errorf("tenant: weight %q: invalid tenant name", part)
		}
		weight, err := strconv.Atoi(strings.TrimSpace(weightStr))
		if err != nil || weight <= 0 {
			return nil, fmt.Errorf("tenant: weight %q: weight must be a positive integer", part)
		}
		if _, dup := w[name]; dup {
			return nil, fmt.Errorf("tenant: weight for %q configured twice", name)
		}
		w[name] = weight
	}
	if len(w) == 0 {
		return nil, nil
	}
	return w, nil
}

// maxTrackedTenants is the soft cap on distinct tenants the limiter tracks
// before it sweeps fully-expired histories. A backstop against unbounded
// growth from hostile tenant-name churn, not a tenancy limit: an active
// tenant is never evicted.
const maxTrackedTenants = 4096

// Limiter is a multi-window sliding-log rate limiter. It is safe for
// concurrent use. A nil Limiter admits everything — a server configured
// without rates carries no limiter at all.
//
// The limiter holds no clock: callers pass the current instant to Allow.
// Timestamps are clamped monotonic per tenant, so a caller whose wall clock
// steps backwards cannot reopen an exhausted window.
type Limiter struct {
	rates []rateWindow // sorted by window, ascending

	mu      sync.Mutex
	tenants map[string]*history
	maxTen  int
	largest time.Duration // the longest configured window (sweep horizon)
}

type rateWindow struct {
	window time.Duration
	limit  int
}

// history is one tenant's admission log: a ring buffer per window holding
// the most recent `limit` admission timestamps, plus the monotonic clamp.
type history struct {
	rings []ring
	last  time.Time // latest instant seen for this tenant (monotonic clamp)
}

// ring keeps the most recent cap timestamps (cap == the window's limit).
type ring struct {
	buf  []time.Time
	head int // index of the oldest entry when full; next write position
	n    int
}

// push records t, overwriting the oldest entry once full.
func (r *ring) push(t time.Time) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = t
		r.n++
		return
	}
	r.buf[r.head] = t
	r.head = (r.head + 1) % len(r.buf)
}

// oldest returns the oldest retained timestamp; only meaningful when full.
func (r *ring) oldest() time.Time { return r.buf[r.head] }

// newest returns the most recent timestamp, or the zero time when empty.
func (r *ring) newest() time.Time {
	if r.n == 0 {
		return time.Time{}
	}
	return r.buf[(r.head+r.n-1)%len(r.buf)]
}

// NewLimiter builds a limiter for the given rate set. Empty or nil rates
// return a nil limiter (which admits everything).
func NewLimiter(rates Rates) *Limiter {
	if len(rates) == 0 {
		return nil
	}
	l := &Limiter{
		tenants: make(map[string]*history),
		maxTen:  maxTrackedTenants,
	}
	for win, limit := range rates {
		l.rates = append(l.rates, rateWindow{window: win, limit: limit})
		if win > l.largest {
			l.largest = win
		}
	}
	sort.Slice(l.rates, func(i, j int) bool { return l.rates[i].window < l.rates[j].window })
	return l
}

// Allow decides one admission for name at instant now. When admitted it
// records the event against every window and returns ok=true. When denied it
// records nothing and returns the earliest instant at which the request
// would be admissible under every violated window — the Retry-After source.
//
// A nil Limiter admits everything.
func (l *Limiter) Allow(name string, now time.Time) (ok bool, retryAt time.Time) {
	if l == nil {
		return true, time.Time{}
	}
	name = Normalize(name)
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.tenants[name]
	if h == nil {
		h = l.addTenantLocked(name, now)
	}
	// Monotonic clamp: a wall clock stepping backwards must not resurrect
	// already-consumed budget.
	if now.Before(h.last) {
		now = h.last
	}
	for i, r := range l.rates {
		ring := &h.rings[i]
		if ring.n < r.limit {
			continue
		}
		// The ring holds the `limit` most recent admissions; if the oldest of
		// them is still strictly inside the window, a new admission would be
		// the limit+1-th. An admission at exactly oldest+window is allowed:
		// the old event has aged out at that instant.
		if age := now.Sub(ring.oldest()); age < r.window {
			at := ring.oldest().Add(r.window)
			if at.After(retryAt) {
				retryAt = at
			}
		}
	}
	if !retryAt.IsZero() {
		h.last = now
		return false, retryAt
	}
	for i := range l.rates {
		h.rings[i].push(now)
	}
	h.last = now
	return true, time.Time{}
}

// addTenantLocked creates a history, sweeping fully-expired tenants first
// when the map has grown past the soft cap. A tenant is fully expired when
// its newest admission is older than the longest configured window — its
// every ring is empty for rate purposes, so dropping it cannot change any
// future decision.
func (l *Limiter) addTenantLocked(name string, now time.Time) *history {
	if len(l.tenants) >= l.maxTen {
		for n, h := range l.tenants {
			idle := true
			for i := range h.rings {
				newest := h.rings[i].newest()
				if !newest.IsZero() && now.Sub(newest) < l.largest {
					idle = false
					break
				}
			}
			if idle {
				delete(l.tenants, n)
			}
		}
	}
	h := &history{rings: make([]ring, len(l.rates))}
	for i, r := range l.rates {
		h.rings[i].buf = make([]time.Time, r.limit)
	}
	l.tenants[name] = h
	return h
}

// RetryAfter converts a denial's earliest-admissible instant into a whole
// number of seconds suitable for a Retry-After header: rounded up, floored
// at 1 (clients must not hot-loop on sub-second hints).
func RetryAfter(now, retryAt time.Time) int {
	d := retryAt.Sub(now)
	if d <= 0 {
		return 1
	}
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}
