package server

import (
	"errors"
	"fmt"
	"sync"

	"eventmatch/internal/server/tenant"
)

// errSaturated reports that the admission queue cannot take the item — the
// HTTP layer turns it into 429 + Retry-After. errTenantSaturated is the
// per-tenant flavor (the submitting tenant's own queue slice is full while
// the aggregate queue may still have room); it wraps errSaturated so every
// existing errors.Is check keeps working.
var (
	errSaturated       = errors.New("server: job queue full")
	errTenantSaturated = fmt.Errorf("%w for tenant", errSaturated)
)

// errDraining reports that the server has stopped admitting work — the HTTP
// layer turns it into 503.
var errDraining = errors.New("server: draining")

// dispatcher is a bounded worker pool behind a weighted-fair admission
// queue. Admission is strictly non-blocking: either the item lands in its
// tenant's queue immediately or the caller gets errSaturated /
// errTenantSaturated. The accept loop never waits on the work itself.
//
// Scheduling is weighted-fair across tenants (tenant.FairQueue stride
// scheduling): workers always pull from the backlogged tenant with the
// least consumed virtual time, so one tenant's flood delays another
// tenant's items by at most one stride round — never by the flood's length.
// With a single tenant the fair queue degenerates to a global FIFO.
//
// The server runs two instances: one drains jobs into the matching engine,
// the other drains session appends into their cores. They stay separate so
// a multi-second exact search never holds up an append.
type dispatcher[T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	fq       *tenant.FairQueue[T] // guarded by mu
	draining bool

	wg  sync.WaitGroup
	run func(T)
}

// newDispatcher starts `workers` goroutines consuming a weighted-fair queue
// of aggregate depth `depth` with per-tenant depth cap `perTenant` (values
// < 1 or > depth clamp to depth) and the given tenant weights (nil = all 1).
func newDispatcher[T any](workers, depth, perTenant int, weights map[string]int, run func(T)) *dispatcher[T] {
	d := &dispatcher[T]{
		fq:  tenant.NewFairQueue[T](depth, perTenant, weights),
		run: run,
	}
	d.cond = sync.NewCond(&d.mu)
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d
}

func (d *dispatcher[T]) worker() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for d.fq.Len() == 0 && !d.draining {
			d.cond.Wait()
		}
		item, _, ok := d.fq.Pop()
		d.mu.Unlock()
		if !ok {
			return // draining and the queue is fully consumed
		}
		d.run(item)
	}
}

// push admits an item into its tenant's queue or fails fast. The mutex
// serializes against drain and the fair queue's bookkeeping — nothing here
// ever blocks on the work itself.
func (d *dispatcher[T]) push(ten string, item T) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return errDraining
	}
	if err := d.fq.Push(ten, item); err != nil {
		if errors.Is(err, tenant.ErrTenantFull) {
			return errTenantSaturated
		}
		return errSaturated
	}
	d.cond.Signal()
	return nil
}

// queued reports the current aggregate queue occupancy.
func (d *dispatcher[T]) queued() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fq.Len()
}

// tenantQueued reports one tenant's queue occupancy (telemetry gauge).
func (d *dispatcher[T]) tenantQueued(name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fq.TenantLen(name)
}

// drain stops admission, lets the workers finish every tenant queue, and
// returns once all workers have exited. Safe to call more than once; push
// returns errDraining afterwards.
func (d *dispatcher[T]) drain() {
	d.mu.Lock()
	if !d.draining {
		d.draining = true
		d.cond.Broadcast()
	}
	d.mu.Unlock()
	d.wg.Wait()
}
