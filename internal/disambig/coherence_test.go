package disambig

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aida/internal/kb"
	"aida/internal/relatedness"
)

// TestScoreAllHonoursCancellation: a canceled context stops scoreAll before
// its first row, so no slot is filled and no comparison counted; the same
// scorer then fills every marked slot under a live context.
func TestScoreAllHonoursCancellation(t *testing.T) {
	k := buildTestKB()
	for _, kind := range []relatedness.Kind{relatedness.KindMW, relatedness.KindKORE} {
		s := newCohScorer(kind, NewProblem(k, exampleText, exampleMentions, 0), nil)
		for lo := 0; lo < s.graphN; lo++ {
			for hi := lo + 1; hi < s.graphN; hi++ {
				s.need(lo, hi)
			}
		}
		pending := s.pending
		if pending == 0 {
			t.Fatalf("%v: no pair marked", kind)
		}
		flags, vals := slices.Clone(s.flags), slices.Clone(s.vals)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.scoreAll(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: scoreAll on a canceled context = %v, want context.Canceled", kind, err)
		}
		if !slices.Equal(s.flags, flags) || !slices.Equal(s.vals, vals) || s.comparisons != 0 {
			t.Fatalf("%v: canceled scoreAll filled slots or counted %d comparisons", kind, s.comparisons)
		}
		if err := s.scoreAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		if s.comparisons != pending {
			t.Fatalf("%v: %d comparisons, want the %d marked pairs", kind, s.comparisons, pending)
		}
		for i, f := range s.flags {
			if f&slotNeeded != 0 && f&slotHave == 0 {
				t.Fatalf("%v: marked slot %d left unfilled", kind, i)
			}
		}
	}
}

// TestCandidateNumberingPinned covers the one case where numbering graph
// nodes first differs from interning in plain scan order. Mention 0 lists
// [B, A, F] and the coherence robustness test fixes it to A, so B and F are
// excluded there; mention 1 lists [C, B] and stays open, so B is a graph
// node after all: ids are A=0 C=1 B=2 D=3 E=4 and, outside the graph, F=5.
// The constants were recorded at the commit before the single id space
// existed; the order coherence edges are enumerated in feeds float sums, so
// any other numbering may move the low bits.
func TestCandidateNumberingPinned(t *testing.T) {
	kp := func(words ...string) kb.Keyphrase { return kb.Keyphrase{Words: words, MI: 1, IDF: 1} }
	a := Candidate{Entity: 1, Label: "A", Prior: 0.85, Keyphrases: []kb.Keyphrase{kp("alpha", "river"), kp("delta")}, InLinks: []kb.EntityID{10, 11, 12, 13}}
	b := Candidate{Entity: 2, Label: "B", Prior: 0.1, Keyphrases: []kb.Keyphrase{kp("alpha", "bridge")}, InLinks: []kb.EntityID{11, 12, 14}}
	b2 := b
	b2.Prior = 0.05
	c := Candidate{Entity: 3, Label: "C", Prior: 0.95, Keyphrases: []kb.Keyphrase{kp("gamma")}, InLinks: []kb.EntityID{10, 14, 15}}
	d := Candidate{Entity: 4, Label: "D", Prior: 0.5, Keyphrases: []kb.Keyphrase{kp("bridge")}, InLinks: []kb.EntityID{11, 12, 13, 14}}
	e := Candidate{Entity: 5, Label: "E", Prior: 0.5, Keyphrases: []kb.Keyphrase{kp("gamma", "ray")}, InLinks: []kb.EntityID{10, 15}}
	f := Candidate{Entity: 6, Label: "F", Prior: 0.05, Keyphrases: []kb.Keyphrase{kp("old", "bridge")}, InLinks: []kb.EntityID{12, 13, 14, 16}}
	p := &Problem{
		ContextWords:  []string{"alpha", "river", "delta", "bridge", "old"},
		TotalEntities: 100,
		Mentions: []Mention{
			{Surface: "m0", Candidates: []Candidate{b, a, f}},
			{Surface: "m1", Candidates: []Candidate{c, b2}},
			{Surface: "m2", Candidates: []Candidate{d, e}},
		},
	}

	s := newCohScorer(relatedness.KindMW, p, []int{1, -1, -1})
	if want := [][]int{{2, 0, 5}, {1, 2}, {3, 4}}; !reflect.DeepEqual(s.ids, want) || s.graphN != 5 {
		t.Fatalf("ids = %v, graphN = %d; want %v, 5", s.ids, s.graphN, want)
	}

	out := NewAIDA().Disambiguate(p)
	if out.Stats.GraphEntities != 5 || out.Stats.Comparisons != 8 {
		t.Errorf("stats = %+v, want 5 graph entities and 8 comparisons", out.Stats)
	}
	wantChosen := []int{1, 1, 0}
	wantScores := [][]uint64{
		{0x3fdcfc4725cab6d9, 0x3ff072d91d48b3fe, 0x3feb695a75151038},
		{0x3fe9cd94b17ebd7e, 0x3feee5557d170cca},
		{0x3ff54d8de5caa714, 0x3fd087375b07095b},
	}
	for i, r := range out.Results {
		if r.CandidateIndex != wantChosen[i] {
			t.Errorf("mention %d: candidate %d, want %d", i, r.CandidateIndex, wantChosen[i])
		}
		for j, v := range r.Scores {
			if got := math.Float64bits(v); got != wantScores[i][j] {
				t.Errorf("mention %d candidate %d: score bits %#x (%v), want %#x", i, j, got, v, wantScores[i][j])
			}
		}
		if r.Score != r.Scores[r.CandidateIndex] {
			t.Errorf("mention %d: score %v is not the chosen candidate's %v", i, r.Score, r.Scores[r.CandidateIndex])
		}
	}
}

// mwProblem draws one seeded random problem for the MW kernel's property
// test. The draws cover what the inverted in-link index must get right:
// empty, one-element and identical in-link lists, lists at least as long as
// |E| (the den ≤ 0 → 1 clamp), |E| ≤ 1, EdgeScale ≠ 1, one entity under
// several mentions, placeholders (kb.NoEntity) with in-links of their own,
// and mentions the coherence robustness test fixes — a dominant prior on
// the one candidate whose keyphrase the context matches — whose other
// candidates stay outside the graph and are only ever scored lazily.
func mwProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	total := []int{0, 1, 2, 6, 40, 1000}[rng.Intn(6)]
	universe := 2 + rng.Intn(30) // in-linker ids; may exceed |E|
	randomLinks := func() []kb.EntityID {
		var links []kb.EntityID
		switch rng.Intn(6) {
		case 0: // empty
		case 1:
			links = []kb.EntityID{kb.EntityID(rng.Intn(universe))}
		default:
			keep := rng.Float64()
			for id := 0; id < universe; id++ {
				if rng.Float64() < keep {
					links = append(links, kb.EntityID(id))
				}
			}
		}
		return links
	}
	pool := make([]Candidate, 4+rng.Intn(12))
	for i := range pool {
		c := Candidate{Entity: kb.EntityID(i), Label: fmt.Sprintf("E%d", i), InLinks: randomLinks()}
		if i > 0 && rng.Intn(5) == 0 {
			c.InLinks = pool[rng.Intn(i)].InLinks // identical lists
		}
		if rng.Intn(6) == 0 {
			c.Entity, c.Label = kb.NoEntity, c.Label+"_EE"
		}
		if rng.Intn(4) == 0 {
			c.Keyphrases = []kb.Keyphrase{{Words: []string{"alpha"}, MI: 1, IDF: 1}}
		}
		c.EdgeScale = []float64{0, 1, 0.35, 2.5}[rng.Intn(4)]
		pool[i] = c
	}
	p := &Problem{ContextWords: []string{"alpha"}, TotalEntities: total}
	for range 1 + rng.Intn(6) {
		m := Mention{Surface: fmt.Sprintf("m%d", len(p.Mentions))}
		for _, at := range rng.Perm(len(pool))[:1+rng.Intn(min(5, len(pool)))] {
			m.Candidates = append(m.Candidates, pool[at])
		}
		// Peak the prior on the first candidate the context matches, if any.
		peak := slices.IndexFunc(m.Candidates, func(c Candidate) bool { return len(c.Keyphrases) > 0 })
		for j := range m.Candidates {
			switch {
			case peak < 0 || len(m.Candidates) == 1:
				m.Candidates[j].Prior = 1 / float64(len(m.Candidates))
			case j == peak:
				m.Candidates[j].Prior = 0.9
			default:
				m.Candidates[j].Prior = 0.1 / float64(len(m.Candidates)-1)
			}
		}
		p.Mentions = append(p.Mentions, m)
	}
	return p
}

// TestMWKernelMatchesPairwiseMW is the property the inverted in-link index
// is held to: on seeded random problems every slot of the triangle — the
// graph's, filled by scoreAll, and the ones only the lazy score reaches —
// holds relatedness.MW of the two in-link lists times the two edge scales,
// bit for bit, and Stats.Comparisons of the full method is what the
// pairwise kernel counted on the same problems (wantComparisons was
// recorded at the commit before the index existed).
func TestMWKernelMatchesPairwiseMW(t *testing.T) {
	wantComparisons := []int{
		10, 15, 0, 6, 0, 10, 14, 61, 34, 9, 0, 9, 48, 6, 9, 17, 0, 24, 19, 0,
		20, 7, 11, 14, 10, 0, 15, 0, 27, 0, 55, 9, 0, 15, 0, 0, 0, 3, 0, 6,
		18, 27, 5, 14, 0, 3, 0, 9, 3, 1, 19, 8, 6, 1, 1, 9, 12, 0, 36, 1,
		6, 12, 0, 6, 2, 29, 20, 17, 15, 24, 0, 41, 6, 0, 0, 0, 20, 0, 0, 15,
	}
	var gotComparisons []int
	positive, clamped, lazy := 0, 0, 0
	for seed := int64(0); seed < 80; seed++ {
		p := mwProblem(seed)
		// The coherence robustness test, as Disambiguate applies it.
		aida := NewAIDA()
		weights, sims := aida.localWeights(p)
		fixed := make([]int, len(p.Mentions))
		for i := range p.Mentions {
			fixed[i] = -1
			if m := &p.Mentions[i]; len(m.Candidates) > 1 && l1Distance(priorVector(m), sims[i]) < lambda {
				fixed[i] = argmax(weights[i])
			}
		}
		s := newCohScorer(relatedness.KindMW, p, fixed)
		want := func(a, b int) uint64 {
			ca, cb := s.cands[a], s.cands[b]
			v := relatedness.MW(ca.InLinks, cb.InLinks, p.TotalEntities)
			if v > 0 {
				positive++
			}
			if v == 1 {
				clamped++
			}
			return math.Float64bits(v * ca.edgeScale() * cb.edgeScale())
		}
		for lo := 0; lo < s.graphN; lo++ {
			for hi := lo + 1; hi < s.graphN; hi++ {
				s.need(lo, hi)
			}
		}
		if err := s.scoreAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for a := range s.cands {
			for b := a + 1; b < len(s.cands); b++ {
				x, y := a, b
				if b >= s.graphN {
					lazy++
					if rng.Intn(2) == 0 { // the scales multiply in argument order
						x, y = b, a
					}
				} else if s.flags[s.slot(a, b)]&slotHave == 0 {
					t.Fatalf("seed %d: scoreAll left graph pair (%d,%d) unfilled", seed, a, b)
				}
				if got, w := math.Float64bits(s.score(x, y)), want(x, y); got != w {
					t.Fatalf("seed %d: pair (%d,%d) of %d candidates, |E|=%d: %v, want MW·scales = %v",
						seed, x, y, len(s.cands), p.TotalEntities, math.Float64frombits(got), math.Float64frombits(w))
				}
			}
		}

		out := aida.Disambiguate(p)
		gotComparisons = append(gotComparisons, out.Stats.Comparisons)
		if out.Stats.GraphEntities != s.graphN {
			t.Fatalf("seed %d: Disambiguate built %d graph entities, the scorer above %d", seed, out.Stats.GraphEntities, s.graphN)
		}
	}
	if positive == 0 || clamped == 0 || lazy == 0 {
		t.Fatalf("draws too narrow: %d positive values, %d clamped to 1, %d lazy pairs", positive, clamped, lazy)
	}
	if !slices.Equal(gotComparisons, wantComparisons) {
		t.Errorf("Stats.Comparisons = %#v\nwant (pairwise kernel) %#v", gotComparisons, wantComparisons)
	}
}

// TestMWKernelRepeatedInLinker: a store that broke the in-link invariant
// must not send the index outside the triangle. A repeated in-linker counts
// once.
func TestMWKernelRepeatedInLinker(t *testing.T) {
	p := &Problem{TotalEntities: 100, Mentions: []Mention{
		{Surface: "m0", Candidates: []Candidate{{Entity: 1, Label: "A", InLinks: []kb.EntityID{7, 7, 7, 9}}}},
		{Surface: "m1", Candidates: []Candidate{{Entity: 2, Label: "B", InLinks: []kb.EntityID{7, 9, 9}}}},
	}}
	s := newCohScorer(relatedness.KindMW, p, nil)
	if got, want := s.score(0, 1), mwFromShared(2, 4, 3, 100); got != want {
		t.Fatalf("score = %v, want %v: two shared in-linkers between lists of 4 and 3", got, want)
	}
}
