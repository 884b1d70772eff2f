package pattern

import "eventmatch/internal/telemetry"

// NumWords reports the length of the index's flat bitset array.
func (ix *TraceIndex) NumWords() int { return len(ix.words) }

// CacheCounts returns the hit, miss and invalidation totals that a frequency
// cache attached to reg publishes.
func CacheCounts(reg *telemetry.Registry) (hits, misses, invalidations int64) {
	s := reg.Snapshot()
	return s.Gauge("cache.hits"), s.Gauge("cache.misses"), s.Gauge("cache.invalidations")
}
