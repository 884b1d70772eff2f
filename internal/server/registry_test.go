package server

import (
	"sync/atomic"
	"testing"
)

// fakeItem is a minimal registry resource.
type fakeItem struct {
	id   string
	done atomic.Bool
}

func (it *fakeItem) setID(id string) { it.id = id }
func (it *fakeItem) terminal() bool  { return it.done.Load() }

func ids(r *registry[*fakeItem]) []string {
	var out []string
	for _, it := range r.all() {
		out = append(out, it.id)
	}
	return out
}

func sameIDs(t *testing.T, r *registry[*fakeItem], want ...string) {
	t.Helper()
	got := ids(r)
	if len(got) != len(want) {
		t.Fatalf("ids %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids %v, want %v", got, want)
		}
		if _, ok := r.get(want[i]); !ok {
			t.Fatalf("get(%q) missed a stored item", want[i])
		}
	}
}

// TestRegistryIDsAfterRecovery: fresh ids continue past the journal's
// highest sequence number, so they never collide with recovered ones.
func TestRegistryIDsAfterRecovery(t *testing.T) {
	r := newRegistry[*fakeItem]("x", 10)
	r.addRecovered(&fakeItem{}, "x3")
	r.addRecovered(&fakeItem{}, "x7")
	r.bumpSeq(7)
	r.bumpSeq(2) // never lowers the sequence
	fresh := &fakeItem{}
	r.add(fresh)
	if fresh.id != "x8" {
		t.Fatalf("fresh id %q after bumpSeq(7), want x8", fresh.id)
	}
	sameIDs(t, r, "x3", "x7", "x8")
	if _, ok := r.get("x1"); ok {
		t.Fatal("get found an id that was never stored")
	}
}

// TestRegistryEvictsOnlyTerminal: past the cap the oldest terminal items go;
// live ones stay even when that keeps the registry over its cap.
func TestRegistryEvictsOnlyTerminal(t *testing.T) {
	r := newRegistry[*fakeItem]("j", 2)
	a, b, c := &fakeItem{}, &fakeItem{}, &fakeItem{}
	r.add(a)
	r.add(b)
	r.add(c)
	sameIDs(t, r, "j1", "j2", "j3") // all live: over the cap, nothing evicted
	b.done.Store(true)
	r.add(&fakeItem{})
	sameIDs(t, r, "j1", "j3", "j4") // only the terminal one went, though j1 is older
	if r.len() != 3 || r.live() != 3 {
		t.Fatalf("len=%d live=%d, want 3 and 3", r.len(), r.live())
	}
	a.done.Store(true)
	c.done.Store(true)
	r.add(&fakeItem{})
	sameIDs(t, r, "j4", "j5")
}

// TestRegistryRecoveryHonorsCap pins the one eviction rule for recovered
// items: a recovery restoring more terminal items than the cap keeps the
// newest, exactly as fresh inserts would. Live recovered items are kept.
func TestRegistryRecoveryHonorsCap(t *testing.T) {
	r := newRegistry[*fakeItem]("s", 2)
	for _, id := range []string{"s1", "s2", "s3", "s4"} {
		it := &fakeItem{}
		it.done.Store(id != "s1")
		r.addRecovered(it, id)
	}
	sameIDs(t, r, "s1", "s4")
}

// TestRegistryReserve: reservations count against the live cap until they
// turn into an item or are released, so concurrent builders cannot
// overshoot it.
func TestRegistryReserve(t *testing.T) {
	r := newRegistry[*fakeItem]("s", 8)
	if !r.reserve(1) {
		t.Fatal("first reservation refused")
	}
	if r.reserve(1) {
		t.Fatal("second reservation admitted past the cap")
	}
	r.release()
	if !r.reserve(1) {
		t.Fatal("released slot not reusable")
	}
	it := &fakeItem{}
	r.addReserved(it)
	if r.live() != 1 || r.reserve(1) {
		t.Fatalf("live=%d after addReserved, and the slot is still free", r.live())
	}
	it.done.Store(true)
	if !r.reserve(1) {
		t.Fatal("a terminal item still holds its live slot")
	}
}
