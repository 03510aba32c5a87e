package analytics

import (
	"testing"

	"aida/internal/kb"
)

func TestFrequencySeries(t *testing.T) {
	a := New()
	a.AddDoc(1, []kb.EntityID{1, 2})
	a.AddDoc(1, []kb.EntityID{1})
	a.AddDoc(2, []kb.EntityID{1})
	got := a.Frequency(1, 1, 3)
	want := []int{2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frequency = %v, want %v", got, want)
		}
	}
}

func TestDaysRange(t *testing.T) {
	a := New()
	if _, _, ok := a.Days(); ok {
		t.Fatal("empty store should have no day range")
	}
	a.AddDoc(3, []kb.EntityID{1})
	a.AddDoc(7, []kb.EntityID{1})
	min, max, ok := a.Days()
	if !ok || min != 3 || max != 7 {
		t.Fatalf("days = %d..%d ok=%v", min, max, ok)
	}
}

func TestNoEntitySkipped(t *testing.T) {
	a := New()
	a.AddDoc(1, []kb.EntityID{kb.NoEntity, 1})
	if got := a.Frequency(kb.NoEntity, 1, 1); got[0] != 0 {
		t.Fatal("NoEntity must not be counted")
	}
	if got := a.Frequency(1, 1, 1); got[0] != 1 {
		t.Fatal("real entity lost")
	}
}
