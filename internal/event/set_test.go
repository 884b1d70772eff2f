package event

import "testing"

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Has(3) {
		t.Fatal("new set must be empty")
	}
	s.Add(3)
	s.Add(7)
	s.Add(3) // idempotent
	if !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Errorf("membership wrong after adds: has3=%v has7=%v has4=%v", s.Has(3), s.Has(7), s.Has(4))
	}
	if len(s.words) != 1 || s.words[0] != 1<<3|1<<7 {
		t.Errorf("words = %b, want bits 3 and 7", s.words)
	}
}

func TestSetZeroValueAndGrowth(t *testing.T) {
	var s Set // zero value: empty, usable
	if s.Has(0) {
		t.Fatal("zero-value set must be empty")
	}
	// Adds past the current word range must grow; 200 spans 4 words.
	for _, v := range []ID{0, 63, 64, 127, 128, 200} {
		s.Add(v)
	}
	for _, v := range []ID{0, 63, 64, 127, 128, 200} {
		if !s.Has(v) {
			t.Errorf("Has(%d) = false after Add", v)
		}
	}
	for _, v := range []ID{1, 62, 65, 126, 129, 199, 201, 1000} {
		if s.Has(v) {
			t.Errorf("Has(%d) = true, never added", v)
		}
	}
	if len(s.words) != 4 {
		t.Errorf("set spans %d words, want 4", len(s.words))
	}
}

func TestSetNegativeIDs(t *testing.T) {
	var s Set
	s.Add(None) // ignored
	s.Add(-5)   // ignored
	if len(s.words) != 0 {
		t.Fatalf("negative adds must be ignored, words = %b", s.words)
	}
	s.Add(0)
	if s.Has(None) || s.Has(-1) || s.Has(-64) {
		t.Error("negative IDs must report false")
	}
}

func TestSetWordBoundaries(t *testing.T) {
	// Every bit position around the 64-bit word boundaries behaves.
	for _, v := range []ID{0, 1, 62, 63, 64, 65, 126, 127, 128} {
		var s Set
		s.Add(v)
		if !s.Has(v) {
			t.Errorf("Add(%d) then Has(%d) = false", v, v)
		}
		if s.words[v>>6] != 1<<(v&63) {
			t.Errorf("word after Add(%d) = %b, want only bit %d", v, s.words[v>>6], v&63)
		}
		if s.Has(v+1) || (v > 0 && s.Has(v-1)) {
			t.Errorf("neighbors of %d must be absent", v)
		}
	}
}
