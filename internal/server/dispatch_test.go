package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDispatcherDrainRunsAdmitted: drain returns only after every admitted
// item ran, even when the workers are still busy when it is called.
func TestDispatcherDrainRunsAdmitted(t *testing.T) {
	gate := make(chan struct{})
	var ran atomic.Int64
	d := newDispatcher(2, 64, 64, nil, func(int) {
		<-gate
		ran.Add(1)
	})
	const n = 40
	for i := 0; i < n; i++ {
		if err := d.push(fmt.Sprintf("t%d", i%3), i); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	go close(gate)
	d.drain()
	if got := ran.Load(); got != n {
		t.Fatalf("drain returned after %d of %d admitted items ran", got, n)
	}
	if q := d.queued(); q != 0 {
		t.Fatalf("queue holds %d items after drain", q)
	}
}

// TestDispatcherPushAfterDrain: a drained dispatcher refuses new work with
// errDraining, and drain stays safe to call again.
func TestDispatcherPushAfterDrain(t *testing.T) {
	d := newDispatcher(1, 4, 4, nil, func(int) {})
	d.drain()
	if err := d.push("a", 1); !errors.Is(err, errDraining) {
		t.Fatalf("push after drain: err = %v, want errDraining", err)
	}
	d.drain()
}

// TestDispatcherSaturation: a full tenant lane answers with an error that is
// both the tenant flavor and the aggregate one (so every errSaturated check
// still matches); a full aggregate queue answers with the aggregate flavor
// only.
func TestDispatcherSaturation(t *testing.T) {
	d := newDispatcher(0, 2, 1, nil, func(int) {}) // no workers: items stay queued
	if err := d.push("a", 1); err != nil {
		t.Fatal(err)
	}
	err := d.push("a", 2)
	if !errors.Is(err, errTenantSaturated) || !errors.Is(err, errSaturated) {
		t.Fatalf("full tenant lane: err = %v, want errTenantSaturated wrapping errSaturated", err)
	}
	if err := d.push("b", 3); err != nil {
		t.Fatal(err)
	}
	err = d.push("c", 4)
	if !errors.Is(err, errSaturated) || errors.Is(err, errTenantSaturated) {
		t.Fatalf("full queue: err = %v, want errSaturated alone", err)
	}
	if d.queued() != 2 || d.tenantQueued("a") != 1 || d.tenantQueued("c") != 0 {
		t.Fatalf("occupancy: queued=%d a=%d c=%d", d.queued(), d.tenantQueued("a"), d.tenantQueued("c"))
	}
}

// TestDispatcherAlternatesTenants: two backlogged tenants of equal weight
// are served alternately, whatever order their items arrived in.
func TestDispatcherAlternatesTenants(t *testing.T) {
	var (
		mu    sync.Mutex
		order []string
	)
	d := newDispatcher(0, 16, 16, nil, func(item string) {
		mu.Lock()
		order = append(order, item)
		mu.Unlock()
	})
	for _, item := range []string{"a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"} {
		if err := d.push(item[:1], item); err != nil {
			t.Fatal(err)
		}
	}
	// One worker started after the backlog is in place, so the service
	// order is exactly the scheduler's pop order.
	d.wg.Add(1)
	go d.worker()
	d.drain()
	if got, want := strings.Join(order, " "), "a1 b1 a2 b2 a3 b3 a4 b4"; got != want {
		t.Fatalf("service order %q, want %q", got, want)
	}
}
