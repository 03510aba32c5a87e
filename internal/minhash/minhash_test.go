package minhash

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSketchDeterministic(t *testing.T) {
	s1 := NewSketcher(8, 42)
	s2 := NewSketcher(8, 42)
	set := []uint64{1, 2, 3, 99}
	a, b := s1.Sketch(set), s2.Sketch(set)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give same sketch")
		}
	}
}

func TestSketchSeedChanges(t *testing.T) {
	a := NewSketcher(8, 1).Sketch([]uint64{1, 2, 3})
	b := NewSketcher(8, 2).Sketch([]uint64{1, 2, 3})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds should give different sketches")
	}
}

func TestSketchOrderInvariant(t *testing.T) {
	s := NewSketcher(16, 7)
	a := s.Sketch([]uint64{1, 2, 3, 4})
	b := s.Sketch([]uint64{4, 3, 2, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sketch must be order invariant")
		}
	}
}

// estimateJaccard estimates the Jaccard similarity of the sets behind two
// equal-length signatures as the fraction of agreeing rows: the sketch
// property the LSH banding relies on.
func estimateJaccard(a, b []uint64) float64 {
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

func TestEstimateJaccardIdentical(t *testing.T) {
	s := NewSketcher(32, 3)
	sig := s.SketchStrings([]string{"hard", "rock", "guitarist"})
	if got := estimateJaccard(sig, sig); got != 1 {
		t.Fatalf("identical sets must estimate 1, got %v", got)
	}
}

func TestEstimateJaccardAccuracy(t *testing.T) {
	// Two sets with true Jaccard 1/3 (overlap 50 of 150 union).
	s := NewSketcher(512, 11)
	var a, b []uint64
	for i := 0; i < 100; i++ {
		a = append(a, uint64(i))
	}
	for i := 50; i < 150; i++ {
		b = append(b, uint64(i))
	}
	got := estimateJaccard(s.Sketch(a), s.Sketch(b))
	if math.Abs(got-1.0/3.0) > 0.08 {
		t.Fatalf("estimate %v too far from 1/3", got)
	}
}

// Property: the Jaccard estimate of a set with itself is 1, and with a
// disjoint set it is (almost always) near 0.
func TestEstimateJaccardProperty(t *testing.T) {
	s := NewSketcher(64, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b []uint64
		for i := 0; i < 30; i++ {
			a = append(a, rng.Uint64())
			b = append(b, rng.Uint64())
		}
		selfSim := estimateJaccard(s.Sketch(a), s.Sketch(a))
		crossSim := estimateJaccard(s.Sketch(a), s.Sketch(b))
		return selfSim == 1 && crossSim < 0.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLSHGroupsSimilarItems(t *testing.T) {
	sk := NewSketcher(8, 21)
	lsh := LSH{Bands: 4, Rows: 2}
	ix := NewIndex(lsh)
	// items 0,1 share most elements; 2 is unrelated.
	ix.Add(0, sk.SketchStrings([]string{"english", "rock", "guitarist", "band"}))
	ix.Add(1, sk.SketchStrings([]string{"english", "rock", "guitarist", "tour"}))
	ix.Add(2, sk.SketchStrings([]string{"quantum", "flux", "capacitor", "warp"}))
	pairs := ix.CandidatePairs()
	has01 := false
	for _, p := range pairs {
		if p == [2]int{0, 1} {
			has01 = true
		}
	}
	if !has01 {
		t.Fatalf("similar items not grouped; pairs=%v", pairs)
	}
}

func TestLSHSeparatesDissimilarItems(t *testing.T) {
	sk := NewSketcher(64, 9)
	lsh := LSH{Bands: 16, Rows: 4}
	ix := NewIndex(lsh)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		set := make([]uint64, 20)
		for j := range set {
			set[j] = rng.Uint64()
		}
		ix.Add(i, sk.Sketch(set))
	}
	if pairs := ix.CandidatePairs(); len(pairs) > 40 {
		t.Fatalf("too many random collisions: %d pairs", len(pairs))
	}
}

func TestBucketKeysBandIndependence(t *testing.T) {
	lsh := LSH{Bands: 2, Rows: 2}
	// Same band sums but in different bands must not produce equal keys.
	sig := []uint64{1, 2, 2, 1}
	keys := lsh.BucketKeys(sig)
	if keys[0] == keys[1] {
		t.Fatal("band index must be mixed into the bucket key")
	}
}

func TestEmptySetSketch(t *testing.T) {
	s := NewSketcher(4, 2)
	sig := s.Sketch(nil)
	for _, v := range sig {
		if v != ^uint64(0) {
			t.Fatal("empty set must sketch to max values")
		}
	}
}

func TestHashStringDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("phrase-%d", i)
		h := HashString(s)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision between %q and %q", prev, s)
		}
		seen[h] = s
	}
}

func BenchmarkSketch(b *testing.B) {
	s := NewSketcher(8, 42)
	set := make([]uint64, 100)
	for i := range set {
		set[i] = uint64(i) * 2654435761
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sketch(set)
	}
}

func BenchmarkCandidatePairs(b *testing.B) {
	sk := NewSketcher(8, 3)
	lsh := LSH{Bands: 4, Rows: 2}
	rng := rand.New(rand.NewSource(2))
	sigs := make([][]uint64, 200)
	for i := range sigs {
		set := make([]uint64, 15)
		for j := range set {
			set[j] = rng.Uint64() % 500 // force some overlap
		}
		sigs[i] = sk.Sketch(set)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := NewIndex(lsh)
		for id, sig := range sigs {
			ix.Add(id, sig)
		}
		ix.CandidatePairs()
	}
}
