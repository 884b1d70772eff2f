package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"eventmatch/internal/event"
	"eventmatch/internal/logio"
	"eventmatch/internal/match"
	"eventmatch/internal/telemetry"
)

// The server caches two layers of job-independent work, both keyed by content
// hash so identical inputs are recognized regardless of job identity:
//
//   - parsed logs: sha256 over (format, lenient, raw bytes) → *event.Log.
//     Logs are immutable after parsing, so a cached log is shared by
//     reference across concurrent jobs.
//
//   - built problems: (log hashes, mode, normalized pattern list) →
//     *match.Problem. A Problem carries the pattern set and two
//     FrequencyCache instances; re-running a job over the same log pair
//     skips trace scanning entirely (the frequency caches are already warm).
//     Problems are safe for concurrent searches: per-search state lives on
//     the search side, and the frequency caches are sharded and race-clean.
//
// Both caches dedupe concurrent fills with a sync.Once per entry — two jobs
// submitting the same log simultaneously parse it once — and evict in FIFO
// insertion order past their cap (matching problems are cheap to rebuild
// relative to holding unbounded parsed logs in memory).

// logKey hashes one log payload with its parse-relevant options.
func logKey(format string, lenient bool, data []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%t|", format, lenient)
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// problemKey identifies a built problem: both log identities, the matching
// mode and the pattern list (order-normalized — pattern sets are unordered).
func problemKey(h1, h2 string, mode match.Mode, patterns []string) string {
	norm := append([]string(nil), patterns...)
	sort.Strings(norm)
	return fmt.Sprintf("%s|%s|%d|%s", h1, h2, int(mode), strings.Join(norm, "\x00"))
}

// cacheEntry is one fill-once cache slot.
type cacheEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// onceCache caches values by content key: parsed logs (V = parsedLog) and
// built match problems with their warm frequency caches.
type onceCache[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry[V]
	order   []string

	hits, misses *telemetry.Counter
}

// newOnceCache creates a cache reporting server.<name>_{hits,misses,entries}.
func newOnceCache[V any](name string, max int, reg *telemetry.Registry) *onceCache[V] {
	c := &onceCache[V]{
		max:     max,
		entries: make(map[string]*cacheEntry[V]),
		hits:    reg.Counter("server." + name + "_hits"),
		misses:  reg.Counter("server." + name + "_misses"),
	}
	reg.RegisterFunc("server."+name+"_entries", func() int64 { return int64(c.len()) })
	return c
}

// get returns the value under key, running fill once per distinct key.
// Entries past the cap are evicted oldest first; never the newest (the one
// the caller is about to fill).
func (c *onceCache[V]) get(key string, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.misses.Inc()
		e = &cacheEntry[V]{}
		c.entries[key] = e
		c.order = append(c.order, key)
		for len(c.order) > c.max {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	} else {
		c.hits.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = fill() })
	return e.val, e.err
}

func (c *onceCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// parsedLog is one log cache value.
type parsedLog struct {
	log *event.Log
	rep logio.ReadReport
}
