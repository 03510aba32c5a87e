package relatedness

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"aida/internal/kb"
)

// TestScorerMatchesFreshMeasures pins the engine's memoized values to the
// values a fresh, single-kind engine computes, for every kind and pair of
// the cluster KB, cold and warm.
func TestScorerMatchesFreshMeasures(t *testing.T) {
	k, music, physics := buildClusterKB()
	ents := append(append([]kb.EntityID{}, music...), physics...)
	s := NewScorer(k)
	kinds := []Kind{KindMW, KindKWCS, KindKPCS, KindKORE, KindKORELSHG, KindKORELSHF}
	for pass := 0; pass < 2; pass++ { // pass 0 cold, pass 1 warm
		for _, kind := range kinds {
			fresh := NewScorer(k)
			for i := range ents {
				for j := range ents {
					got := s.Relatedness(kind, ents[i], ents[j])
					want := fresh.Relatedness(kind, ents[i], ents[j])
					if got != want {
						t.Fatalf("pass %d %v(%d,%d) = %v, fresh engine %v", pass, kind, ents[i], ents[j], got, want)
					}
				}
			}
		}
	}
	if s.Stats().Hits == 0 {
		t.Error("warm pass should report cache hits")
	}
}

// TestScorerMWIsComputedNotMemoized: MW through the engine is the MW
// function on the two entities' in-link lists, bit for bit, for every pair
// of the cluster KB in both argument orders and from 8 goroutines at once
// (the -race half) — and it holds no engine state: no pair row, no counter,
// no allocation.
func TestScorerMWIsComputedNotMemoized(t *testing.T) {
	k, music, physics := buildClusterKB()
	ents := append(append([]kb.EntityID{}, music...), physics...)
	s := NewScorer(k)
	s.Relatedness(KindKORE, ents[0], ents[1]) // state a stray MW write would disturb
	before := s.Stats()

	var positive atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range ents {
				for _, b := range ents {
					want := 1.0
					if a != b {
						want = MW(k.Entity(a).InLinks, k.Entity(b).InLinks, k.NumEntities())
					}
					got := s.Relatedness(KindMW, a, b)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("Relatedness(MW, %d, %d) = %v, MW on the in-link lists = %v", a, b, got, want)
					}
					if a != b && got > 0 {
						positive.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if positive.Load() == 0 {
		t.Fatal("no pair of the cluster KB has positive MW; the comparison is vacuous")
	}
	if after := s.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("MW traffic moved the engine's stats:\nbefore %+v\nafter  %+v", before, after)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Relatedness(KindMW, ents[0], ents[1]) }); allocs != 0 {
		t.Errorf("Relatedness(MW) allocates %v times per call, want 0", allocs)
	}
}

// TestScorerConcurrentDeterministic hammers one engine from many
// goroutines and checks every observed value against a sequential engine.
// Run under -race this doubles as the shared-scorer race test.
func TestScorerConcurrentDeterministic(t *testing.T) {
	k, music, physics := buildClusterKB()
	ents := append(append([]kb.EntityID{}, music...), physics...)
	kinds := []Kind{KindMW, KindKWCS, KindKPCS, KindKORE, KindKORELSHF}
	want := make(map[pairKey]float64)
	ref := NewScorer(k)
	for _, kind := range kinds {
		for i := range ents {
			for j := i + 1; j < len(ents); j++ {
				want[pairKey{pairCacheKind(kind), ents[i], ents[j]}] = ref.Relatedness(kind, ents[i], ents[j])
			}
		}
	}

	s := NewScorer(k)
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 300; it++ {
				kind := kinds[rng.Intn(len(kinds))]
				a, b := ents[rng.Intn(len(ents))], ents[rng.Intn(len(ents))]
				got := s.Relatedness(kind, a, b)
				if a == b {
					if got != 1 {
						errs <- "self relatedness != 1"
					}
					continue
				}
				x, y := a, b
				if x > y {
					x, y = y, x
				}
				if got != want[pairKey{pairCacheKind(kind), x, y}] {
					errs <- "concurrent value diverged from sequential"
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestScorerSharedFilterPairsStable checks that a filter reused across
// calls — its sketches memoized process-wide after the first — yields the
// same pair set as per-call construction.
func TestScorerSharedFilterPairsStable(t *testing.T) {
	_, _, sets := clusterSets()
	for _, kind := range []Kind{KindKORELSHG, KindKORELSHF} {
		shared := NewLSHFilter(kind)
		shared.PairsOfSets(sets)
		got := shared.PairsOfSets(sets)
		want := NewLSHFilter(kind).PairsOfSets(sets)
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs from shared filter, %d from fresh", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: pair %d differs", kind, i)
			}
		}
	}
}

// cosineSortedKeys is the pre-refactor implementation: sums in sorted key
// order over materialized key slices. Kept as the reference the optimized
// cosine is pinned against.
func cosineSortedKeys(a, b map[string]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	keys := func(m map[string]float64) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	var dot, na, nb float64
	for _, k := range keys(a) {
		va := a[k]
		na += float64(va * va)
		if vb, ok := b[k]; ok {
			dot += float64(va * vb)
		}
	}
	for _, k := range keys(b) {
		vb := b[k]
		nb += float64(vb * vb)
	}
	if na == 0 || nb == 0 {
		return 0
	}
	v := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if v > 1 {
		v = 1
	}
	return v
}

// TestCosineMatchesReference pins the optimized cosine bit-for-bit against
// the old sorted-key implementation on vectors whose values are dyadic
// rationals (every accumulation order yields the exact same float there —
// the strongest bit-level pin reordered summation admits), to 1-ulp-scale
// agreement on arbitrary random vectors, and to bit-stable self-determinism
// across repeated calls (the property batch annotation relies on).
func TestCosineMatchesReference(t *testing.T) {
	dyadic := []map[string]float64{
		{},
		{"a": 1},
		{"a": 1, "b": 2, "c": 0.5},
		{"b": 0.25, "c": 4, "d": 8, "e": 0.125},
		{"a": 3, "c": 1.5, "e": 0.75, "f": 2, "g": 16},
	}
	for i, a := range dyadic {
		for j, b := range dyadic {
			got, want := cosine(a, b), cosineSortedKeys(a, b)
			if got != want {
				t.Errorf("dyadic %d×%d: cosine=%v reference=%v", i, j, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(99))
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for trial := 0; trial < 200; trial++ {
		a, b := map[string]float64{}, map[string]float64{}
		for _, w := range words {
			if rng.Float64() < 0.7 {
				a[w] = rng.Float64() * 5
			}
			if rng.Float64() < 0.7 {
				b[w] = rng.Float64() * 5
			}
		}
		got, want := cosine(a, b), cosineSortedKeys(a, b)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: cosine=%v reference=%v", trial, got, want)
		}
		// The optimized cosine must be self-deterministic: identical bits
		// on every call despite randomized map iteration order.
		for rep := 0; rep < 8; rep++ {
			if again := cosine(a, b); again != got {
				t.Fatalf("trial %d: non-deterministic cosine: %v vs %v", trial, again, got)
			}
		}
	}
}

func BenchmarkCosine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	va, vb := map[string]float64{}, map[string]float64{}
	for i := 0; i < 40; i++ {
		va[string(rune('a'+i%26))+string(rune('a'+i/26))] = rng.Float64()
	}
	for i := 20; i < 70; i++ {
		vb[string(rune('a'+i%26))+string(rune('a'+i/26))] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cosine(va, vb)
	}
}
