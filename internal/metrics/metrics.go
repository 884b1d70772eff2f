// Package metrics evaluates matching quality against a ground-truth mapping
// using the precision / recall / F-measure criteria of the paper's Section 6.
package metrics

import (
	"eventmatch/internal/event"
	"eventmatch/internal/match"
)

// Quality holds the standard retrieval metrics over mapping pairs.
type Quality struct {
	Correct   int // |found ∩ truth|
	Found     int // |found|
	Truth     int // |truth|
	Precision float64
	Recall    float64
	FMeasure  float64
}

// Evaluate compares a found mapping against the ground truth. Both mappings
// are over the same V1; unmapped entries are ignored on both sides.
//
// The mappings may have different lengths (a truncated anytime run can
// return fewer entries than the truth covers, and a truth file may annotate
// only a prefix of the vertices). Only the common prefix can contribute to
// Correct; mapped entries beyond the other side's length still count toward
// Found (lowering precision — they are claims the truth cannot confirm) or
// toward Truth (lowering recall — they are pairs the search never produced).
// A zero-length or fully unmapped side yields zero metrics, never NaN.
func Evaluate(found, truth match.Mapping) Quality {
	var q Quality
	n := len(found)
	if len(truth) < n {
		n = len(truth)
	}
	for v1 := 0; v1 < n; v1++ {
		f, t := found[v1], truth[v1]
		if f != event.None && t != event.None && f == t {
			q.Correct++
		}
	}
	for _, v := range found {
		if v != event.None {
			q.Found++
		}
	}
	for _, v := range truth {
		if v != event.None {
			q.Truth++
		}
	}
	if q.Found > 0 {
		q.Precision = float64(q.Correct) / float64(q.Found)
	}
	if q.Truth > 0 {
		q.Recall = float64(q.Correct) / float64(q.Truth)
	}
	if q.Precision+q.Recall > 0 {
		q.FMeasure = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}
