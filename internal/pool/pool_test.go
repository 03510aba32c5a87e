package pool

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var counts [n]atomic.Int32
		ForEach(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestZeroed(t *testing.T) {
	buf := []int{1, 2, 3, 4}
	got := Zeroed(buf, 3)
	if len(got) != 3 || &got[0] != &buf[0] || got[0]+got[1]+got[2] != 0 {
		t.Fatalf("Zeroed(4-cap, 3) = %v on a new array: %v", got, &got[0] != &buf[0])
	}
	if buf[3] != 4 {
		t.Fatal("Zeroed cleared past the requested length")
	}
	if got = Zeroed(buf, 9); len(got) != 9 || got[8] != 0 {
		t.Fatalf("Zeroed(4-cap, 9) = %v", got)
	}
	if got = Zeroed[int](nil, 0); len(got) != 0 {
		t.Fatalf("Zeroed(nil, 0) = %v", got)
	}
}
