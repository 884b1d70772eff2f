package server

import (
	"strconv"
	"sync"
)

// lifecycled is what a registry needs from the resources it stores: a way
// to receive the id it assigns, and whether the resource reached a terminal
// state (only those may be evicted).
type lifecycled interface {
	setID(id string)
	terminal() bool
}

// registry holds one kind of server resource (jobs, sessions) by id in
// insertion order. Ids are the prefix followed by a sequence number.
//
// Past max stored items the oldest terminal ones are evicted; live items are
// never evicted, so the registry only exceeds its cap while more than max
// items are live. The rule is the same for fresh and recovered items: a
// recovery that restores more terminal items than the cap keeps the newest
// ones (the journal still holds the rest).
//
// Lock order: registry.mu → the item's own mutex (terminal takes it).
type registry[T lifecycled] struct {
	mu       sync.Mutex
	prefix   string
	max      int
	next     int
	reserved int // live slots claimed by items still being built
	byID     map[string]T
	order    []string // ids, oldest first
}

func newRegistry[T lifecycled](prefix string, max int) *registry[T] {
	return &registry[T]{prefix: prefix, max: max, byID: make(map[string]T)}
}

// add registers an item under a fresh id.
func (r *registry[T]) add(item T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.insertLocked(item, r.prefix+strconv.Itoa(r.next))
}

// reserve claims one of max live slots for an item that is still being
// built, so concurrent builders cannot overshoot max between the check and
// the insert. The claim ends in addReserved (the item takes the slot) or in
// release (the build failed).
func (r *registry[T]) reserve(max int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.liveLocked()+r.reserved >= max {
		return false
	}
	r.reserved++
	return true
}

// addReserved registers an item under a fresh id in a slot taken by reserve.
func (r *registry[T]) addReserved(item T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserved--
	r.next++
	r.insertLocked(item, r.prefix+strconv.Itoa(r.next))
}

// release gives back a slot taken by reserve.
func (r *registry[T]) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reserved--
}

// addRecovered registers a replayed item under its journaled id.
func (r *registry[T]) addRecovered(item T, id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insertLocked(item, id)
}

func (r *registry[T]) insertLocked(item T, id string) {
	item.setID(id)
	r.byID[id] = item
	r.order = append(r.order, id)
	over := len(r.order) - r.max
	if over <= 0 {
		return
	}
	kept := r.order[:0]
	for _, old := range r.order {
		if over > 0 && old != id && r.byID[old].terminal() {
			delete(r.byID, old)
			over--
			continue
		}
		kept = append(kept, old)
	}
	r.order = kept
}

// bumpSeq raises the id sequence to at least n (the journal's max seq), so
// fresh ids never collide with recovered ones.
func (r *registry[T]) bumpSeq(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.next {
		r.next = n
	}
}

// get looks an item up by id.
func (r *registry[T]) get(id string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	item, ok := r.byID[id]
	return item, ok
}

// all returns the stored items in insertion order.
func (r *registry[T]) all() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, len(r.order))
	for i, id := range r.order {
		out[i] = r.byID[id]
	}
	return out
}

// len reports the stored item count (a telemetry func gauge reads it).
func (r *registry[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// live counts non-terminal items (the MaxSessions admission check and the
// telemetry gauge).
func (r *registry[T]) live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveLocked()
}

func (r *registry[T]) liveLocked() int {
	n := 0
	for _, id := range r.order {
		if !r.byID[id].terminal() {
			n++
		}
	}
	return n
}
