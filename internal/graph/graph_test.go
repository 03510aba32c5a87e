package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// twoClusterGraph builds the canonical ambiguity scenario of Sec. 3.1:
// three mentions, each with a "music" candidate and a "geography"
// candidate; music candidates are mutually coherent, geography ones are
// not. Entities 0,2,4 are the coherent (correct) cluster.
func twoClusterGraph(priorForWrong float64) *Graph {
	g := New(3, 6)
	for m := 0; m < 3; m++ {
		g.AddMentionEdge(m, 2*m, 0.4)             // correct candidate
		g.AddMentionEdge(m, 2*m+1, priorForWrong) // popular wrong candidate
	}
	g.AddEntityEdge(0, 2, 0.8)
	g.AddEntityEdge(0, 4, 0.8)
	g.AddEntityEdge(2, 4, 0.8)
	return g
}

func TestSolveCoherentCluster(t *testing.T) {
	g := twoClusterGraph(0.5)
	res := Solve(g, Options{})
	want := []int{0, 2, 4}
	for m, e := range res.Assignment {
		if e != want[m] {
			t.Fatalf("assignment = %v, want %v", res.Assignment, want)
		}
	}
}

func TestSolveEveryMentionAssigned(t *testing.T) {
	g := twoClusterGraph(0.5)
	res := Solve(g, Options{})
	for m, e := range res.Assignment {
		if e < 0 {
			t.Fatalf("mention %d unassigned", m)
		}
		found := false
		for _, edge := range g.mentionEdges[m] {
			if edge.Entity == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("mention %d assigned non-candidate %d", m, e)
		}
	}
}

func TestSolveMentionWithoutCandidates(t *testing.T) {
	g := New(2, 2)
	g.AddMentionEdge(0, 0, 0.9)
	// mention 1 has no candidates
	res := Solve(g, Options{})
	if res.Assignment[0] != 0 {
		t.Errorf("mention 0 should get entity 0")
	}
	if res.Assignment[1] != -1 {
		t.Errorf("mention 1 should stay unassigned, got %d", res.Assignment[1])
	}
}

func TestSolveSingleMention(t *testing.T) {
	g := New(1, 3)
	g.AddMentionEdge(0, 0, 0.2)
	g.AddMentionEdge(0, 1, 0.9)
	g.AddMentionEdge(0, 2, 0.5)
	res := Solve(g, Options{})
	if res.Assignment[0] != 1 {
		t.Fatalf("want best-weight candidate 1, got %d", res.Assignment[0])
	}
}

func TestSolvePrefersCoherenceOverWeakPrior(t *testing.T) {
	// Wrong candidates have higher mention-entity weight, but no mutual
	// coherence; the coherent cluster must still win overall.
	g := twoClusterGraph(0.55)
	res := Solve(g, Options{})
	want := []int{0, 2, 4}
	for m := range want {
		if res.Assignment[m] != want[m] {
			t.Fatalf("coherence should win: got %v", res.Assignment)
		}
	}
}

func TestSolveDominantLocalWeight(t *testing.T) {
	// With an overwhelming mention-entity weight and no coherence at all,
	// the heavy candidate must be chosen.
	g := New(2, 4)
	g.AddMentionEdge(0, 0, 0.1)
	g.AddMentionEdge(0, 1, 5.0)
	g.AddMentionEdge(1, 2, 0.3)
	g.AddMentionEdge(1, 3, 0.1)
	res := Solve(g, Options{})
	if res.Assignment[0] != 1 || res.Assignment[1] != 2 {
		t.Fatalf("got %v, want [1 2]", res.Assignment)
	}
}

func TestPruneKeepsBestCandidates(t *testing.T) {
	// 80 entities for 4 mentions is more than the pruneFactor·4 = 20 the
	// pre-processing keeps. Mentions 0–2 have 20 candidates each, all
	// coherent across mentions, so every one of their 60 entities lies
	// closer to the mention set than any candidate of the isolated mention
	// 3. Pruning must still keep mention 3's best candidate (entity 60).
	g := New(4, 80)
	for m := 0; m < 4; m++ {
		for c := 0; c < 20; c++ {
			w := 0.1
			if c == 0 {
				w = 0.9
			}
			g.AddMentionEdge(m, m*20+c, w)
		}
	}
	for a := 0; a < 60; a++ {
		for b := a + 1; b < 60; b++ {
			if a/20 != b/20 {
				g.AddEntityEdge(a, b, 0.9)
			}
		}
	}
	s := newSolverState(g)
	s.prune()
	if want := pruneFactor*4 + 1; s.numPresent != want {
		t.Fatalf("%d entities survive pruning, want pruneFactor·mentions plus the protected best = %d", s.numPresent, want)
	}
	res := Solve(g, Options{})
	for m := 0; m < 4; m++ {
		if res.Assignment[m] != m*20 {
			t.Fatalf("mention %d: got %d, want protected best %d", m, res.Assignment[m], m*20)
		}
	}
}

func TestTabooPreservesLastCandidate(t *testing.T) {
	// Entity 0 is the sole candidate of mention 0 and has tiny degree; it
	// must never be removed.
	g := New(2, 3)
	g.AddMentionEdge(0, 0, 0.01)
	g.AddMentionEdge(1, 1, 0.5)
	g.AddMentionEdge(1, 2, 0.6)
	g.AddEntityEdge(1, 2, 0.9)
	res := Solve(g, Options{})
	if res.Assignment[0] != 0 {
		t.Fatalf("sole candidate dropped: %v", res.Assignment)
	}
}

// localSearchGraph has 8 mentions with 5 candidates each: no more than the
// pruneFactor·8 entities pruning keeps. Every pair of entities is coherent,
// more strongly than any mention edge weighs, so the normalized minimum
// degree shrinks with every removal and the peel's best subgraph is the
// whole graph. So 5^8 = 390 625 assignments survive, more than
// maxEnumerate, and the solver falls back to local search.
func localSearchGraph() *Graph {
	rng := rand.New(rand.NewSource(7))
	m, c := 8, 5
	g := New(m, m*c)
	for i := 0; i < m; i++ {
		for j := 0; j < c; j++ {
			g.AddMentionEdge(i, i*c+j, 0.1+float64(0.4*rng.Float64()))
		}
	}
	for a := 0; a < m*c; a++ {
		for b := a + 1; b < m*c; b++ {
			g.AddEntityEdge(a, b, 0.85+float64(0.1*rng.Float64()))
		}
	}
	return g
}

func TestLocalSearchFallback(t *testing.T) {
	g := localSearchGraph()
	s := newSolverState(g)
	s.prune()
	removal, best := s.greedyPeel()
	s.restoreTo(removal, best)
	combos := 1
	for m := 0; m < g.mentions; m++ {
		combos *= len(s.remainingCandidates(m))
	}
	if combos <= maxEnumerate {
		t.Fatalf("%d assignments survive the peel, want more than maxEnumerate = %d", combos, maxEnumerate)
	}
	res := Solve(g, Options{})
	for i, e := range res.Assignment {
		if e < 0 || e/5 != i {
			t.Fatalf("mention %d got invalid entity %d", i, e)
		}
	}
}

// TestSolveDeterministic solves the local-search graph twice: the fallback
// draws from a random source, which is seeded the same way every time.
func TestSolveDeterministic(t *testing.T) {
	r1 := Solve(localSearchGraph(), Options{})
	r2 := Solve(localSearchGraph(), Options{})
	if !slices.Equal(r1.Assignment, r2.Assignment) ||
		math.Float64bits(r1.TotalWeight) != math.Float64bits(r2.TotalWeight) {
		t.Fatalf("solver is not deterministic: %v (%v) then %v (%v)",
			r1.Assignment, r1.TotalWeight, r2.Assignment, r2.TotalWeight)
	}
}

func TestEntityEdgeSymmetric(t *testing.T) {
	g := New(1, 3)
	g.AddEntityEdge(0, 2, 0.7)
	if g.EntityEdge(0, 2) != 0.7 || g.EntityEdge(2, 0) != 0.7 {
		t.Fatal("entity edges must be symmetric")
	}
	g.AddEntityEdge(1, 1, 0.9)
	if g.EntityEdge(1, 1) != 0 {
		t.Fatal("self edges must be ignored")
	}
}

// TestEntityEdgeStorage pins the edge-store contract on the flat triangle:
// a second AddEntityEdge overwrites, a zero weight is dropped without
// clearing an existing edge, and graphs too small to hold a pair accept
// (and ignore) self edges and solve.
func TestEntityEdgeStorage(t *testing.T) {
	g := New(1, 4)
	g.AddEntityEdge(3, 1, 0.25)
	g.AddEntityEdge(1, 3, 0.5)
	if g.EntityEdge(1, 3) != 0.5 || g.EntityEdge(3, 1) != 0.5 {
		t.Fatalf("overwrite: got %v / %v, want 0.5", g.EntityEdge(1, 3), g.EntityEdge(3, 1))
	}
	g.AddEntityEdge(1, 3, 0)
	if g.EntityEdge(1, 3) != 0.5 {
		t.Fatalf("zero weight must be dropped, edge now %v", g.EntityEdge(1, 3))
	}
	g.AddEntityEdge(0, 1, 0.125)
	g.AddEntityEdge(2, 3, 0.75)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			want := 0.0
			switch [2]int{min(a, b), max(a, b)} {
			case [2]int{0, 1}:
				want = 0.125
			case [2]int{1, 3}:
				want = 0.5
			case [2]int{2, 3}:
				want = 0.75
			}
			if got := g.EntityEdge(a, b); got != want {
				t.Errorf("EntityEdge(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
	// The solver's neighbour walk must agree with EntityEdge, in ascending
	// order, for every entity including the first and the last.
	for e := 0; e < 4; e++ {
		var got, want []Edge
		g.eachNeighbor(e, func(nb int, w float64) { got = append(got, Edge{nb, w}) })
		for nb := 0; nb < 4; nb++ {
			if w := g.EntityEdge(e, nb); w != 0 {
				want = append(want, Edge{nb, w})
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("eachNeighbor(%d) = %v, want %v", e, got, want)
		}
	}
	for _, entities := range []int{0, 1} {
		g := New(2, entities)
		if entities == 1 {
			g.AddMentionEdge(0, 0, 0.5)
			g.AddEntityEdge(0, 0, 0.9)
			if g.EntityEdge(0, 0) != 0 {
				t.Fatal("self edge stored on a one-entity graph")
			}
		}
		res := Solve(g, Options{})
		want := []int{entities - 1, -1}
		if !slices.Equal(res.Assignment, want) {
			t.Errorf("New(2,%d): assignment %v, want %v", entities, res.Assignment, want)
		}
	}
}

// TestSolveBitIdenticalAcrossRuns rebuilds one random graph many times:
// weighted degrees are float sums over an entity's neighbours, so the
// result is reproducible to the last bit only if the solver visits them in
// a fixed order.
func TestSolveBitIdenticalAcrossRuns(t *testing.T) {
	build := func() *Graph {
		rng := rand.New(rand.NewSource(11))
		m, c := 10, 4
		g := New(m, m*c)
		for i := 0; i < m; i++ {
			for j := 0; j < c; j++ {
				g.AddMentionEdge(i, i*c+j, rng.Float64())
			}
		}
		for a := 0; a < m*c; a++ {
			for b := a + 1; b < m*c; b++ {
				if rng.Float64() < 0.6 {
					g.AddEntityEdge(a, b, rng.Float64())
				}
			}
		}
		return g
	}
	first := Solve(build(), Options{})
	for run := 1; run < 200; run++ {
		res := Solve(build(), Options{})
		if math.Float64bits(res.Objective) != math.Float64bits(first.Objective) ||
			math.Float64bits(res.TotalWeight) != math.Float64bits(first.TotalWeight) ||
			!slices.Equal(res.Assignment, first.Assignment) {
			t.Fatalf("run %d: objective %v total %v assignment %v; first run: %v %v %v",
				run, res.Objective, res.TotalWeight, res.Assignment,
				first.Objective, first.TotalWeight, first.Assignment)
		}
	}
}

// Property: for random graphs, the assignment always picks candidates of
// the right mention and never assigns removed entities.
func TestSolveValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		c := 1 + rng.Intn(4)
		g := New(m, m*c)
		for i := 0; i < m; i++ {
			for j := 0; j < c; j++ {
				g.AddMentionEdge(i, i*c+j, rng.Float64())
			}
		}
		for a := 0; a < m*c; a++ {
			for b := a + 1; b < m*c; b++ {
				if rng.Float64() < 0.3 {
					g.AddEntityEdge(a, b, rng.Float64())
				}
			}
		}
		res := Solve(g, Options{})
		for i, e := range res.Assignment {
			if e < 0 {
				return false
			}
			if e/c != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reported total weight matches an independent recomputation.
func TestTotalWeightConsistent(t *testing.T) {
	g := twoClusterGraph(0.5)
	res := Solve(g, Options{})
	want := 0.0
	for m, e := range res.Assignment {
		want += g.MentionEdge(m, e)
	}
	for i := 0; i < len(res.Assignment); i++ {
		for j := i + 1; j < len(res.Assignment); j++ {
			if res.Assignment[i] != res.Assignment[j] {
				want += g.EntityEdge(res.Assignment[i], res.Assignment[j])
			}
		}
	}
	if diff := res.TotalWeight - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("total weight %v, recomputed %v", res.TotalWeight, want)
	}
}

func BenchmarkSolveSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Solve(twoClusterGraph(0.5), Options{})
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m, c := 15, 10
	g := New(m, m*c)
	for i := 0; i < m; i++ {
		for j := 0; j < c; j++ {
			g.AddMentionEdge(i, i*c+j, rng.Float64()*0.5)
		}
	}
	for a := 0; a < m*c; a++ {
		for b2 := a + 1; b2 < m*c; b2++ {
			if rng.Float64() < 0.05 {
				g.AddEntityEdge(a, b2, rng.Float64())
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(g, Options{})
	}
}
