package tenant

import (
	"errors"
)

// Queue-full errors. The server maps both onto HTTP 429 "queue full"; they
// are distinct so telemetry can attribute the rejection.
var (
	// ErrTenantFull: the submitting tenant's own queue is at its depth cap.
	ErrTenantFull = errors.New("tenant: per-tenant queue full")
	// ErrQueueFull: the aggregate queue (across all tenants) is at capacity.
	ErrQueueFull = errors.New("tenant: aggregate queue full")
)

// strideScale is the virtual-time quantum for weight 1. Pass values advance
// by strideScale/weight per pop, so a weight-3 tenant is served three times
// as often as a weight-1 tenant under sustained backlog. uint64 passes at
// this scale cannot realistically overflow (2^44 pops at the maximum
// weight).
const strideScale = 1 << 20

// maxWeight bounds configured weights so strides stay meaningful.
const maxWeight = strideScale

// FairQueue schedules items of type T across per-tenant FIFO queues with
// stride (weighted-fair) selection. It is NOT safe for concurrent use —
// callers hold their own lock (the server's pool does).
//
// Invariants:
//
//   - Per-tenant FIFO: two items of one tenant leave in submission order.
//   - Weighted fairness: under sustained backlog, tenants are served in
//     proportion to their weights (each pop advances the chosen tenant's
//     virtual time by strideScale/weight; Pop always serves the minimum).
//   - Starvation freedom: every non-empty tenant's pass is finite and
//     monotonically increasing while others pop, so any queued item is
//     popped after a bounded number of other pops (at most
//     weight_total/weight_t per round).
//   - Idle resync: a tenant whose queue empties re-enters at the current
//     global virtual time, so idling earns no credit and costs no penalty.
type FairQueue[T any] struct {
	perTenant int            // per-tenant depth cap (>=1)
	capacity  int            // aggregate cap across all tenants (>=1)
	weights   map[string]int // configured weights; unlisted tenants get 1

	queues     map[string]*tenantQueue[T]
	size       int
	globalPass uint64 // pass of the most recently served tenant
}

type tenantQueue[T any] struct {
	items  []T
	pass   uint64
	stride uint64
}

// NewFairQueue builds a queue with the given aggregate capacity, per-tenant
// depth cap, and weight table (nil = every tenant weight 1). perTenant
// values < 1 or > capacity are clamped to capacity — the single-tenant
// degenerate case is then exactly a bounded FIFO of depth capacity.
func NewFairQueue[T any](capacity, perTenant int, weights map[string]int) *FairQueue[T] {
	if capacity < 1 {
		capacity = 1
	}
	if perTenant < 1 || perTenant > capacity {
		perTenant = capacity
	}
	w := make(map[string]int, len(weights))
	for name, weight := range weights {
		if weight < 1 {
			weight = 1
		}
		if weight > maxWeight {
			weight = maxWeight
		}
		w[name] = weight
	}
	return &FairQueue[T]{
		perTenant: perTenant,
		capacity:  capacity,
		weights:   w,
		queues:    make(map[string]*tenantQueue[T]),
	}
}

// Weight returns the effective weight for a tenant name.
func (q *FairQueue[T]) Weight(name string) int {
	if w, ok := q.weights[Normalize(name)]; ok {
		return w
	}
	return 1
}

// Push enqueues item for the tenant, or reports why it cannot: the tenant's
// own queue is at its depth cap (ErrTenantFull) or the aggregate queue is at
// capacity (ErrQueueFull). Never blocks.
func (q *FairQueue[T]) Push(name string, item T) error {
	name = Normalize(name)
	if q.size >= q.capacity {
		return ErrQueueFull
	}
	tq := q.queues[name]
	if tq != nil && len(tq.items) >= q.perTenant {
		return ErrTenantFull
	}
	if tq == nil {
		tq = &tenantQueue[T]{stride: strideScale / uint64(q.Weight(name))}
		q.queues[name] = tq
	}
	if len(tq.items) == 0 && tq.pass < q.globalPass {
		// Idle resync: re-enter at the current virtual time instead of
		// consuming the credit accumulated while absent.
		tq.pass = q.globalPass
	}
	tq.items = append(tq.items, item)
	q.size++
	return nil
}

// Pop removes and returns the next item under stride order: the non-empty
// tenant with the smallest pass (ties broken by lexicographically smallest
// tenant name, so scheduling is deterministic). ok=false when empty.
func (q *FairQueue[T]) Pop() (item T, name string, ok bool) {
	var best *tenantQueue[T]
	for n, tq := range q.queues {
		if len(tq.items) == 0 {
			continue
		}
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && n < name) {
			best, name = tq, n
		}
	}
	if best == nil {
		var zero T
		return zero, "", false
	}
	item = best.items[0]
	var zero T
	best.items[0] = zero // release the reference for GC
	best.items = best.items[1:]
	if len(best.items) == 0 {
		// Reset the backing array so a long-idle tenant doesn't pin the
		// popped items' storage.
		best.items = nil
	}
	q.size--
	q.globalPass = best.pass
	best.pass += best.stride
	return item, name, true
}

// Len reports the total queued item count.
func (q *FairQueue[T]) Len() int { return q.size }

// TenantLen reports one tenant's queued item count.
func (q *FairQueue[T]) TenantLen(name string) int {
	if tq := q.queues[Normalize(name)]; tq != nil {
		return len(tq.items)
	}
	return 0
}
