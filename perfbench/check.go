package main

import (
	"fmt"
	"sort"
	"strings"

	"eventmatch/internal/match"
)

func sameMapping(a, b match.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPairs verifies a name-level mapping against the reference's.
func checkPairs(got, want map[string]string) error {
	var diff []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			diff = append(diff, fmt.Sprintf("%s→%q (want %q)", k, g, w))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s→%q (want unmapped)", k, g))
		}
	}
	if len(diff) == 0 {
		return nil
	}
	sort.Strings(diff)
	return fmt.Errorf("mapping differs from the in-process reference: %s", strings.Join(diff, ", "))
}
