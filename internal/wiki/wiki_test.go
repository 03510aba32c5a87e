package wiki

import (
	"strings"
	"testing"

	"aida/internal/kb"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	return Generate(Config{Seed: 42, Entities: 400})
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(Config{Seed: 7, Entities: 150})
	w2 := Generate(Config{Seed: 7, Entities: 150})
	if w1.KB.NumEntities() != w2.KB.NumEntities() {
		t.Fatal("entity counts differ across identical seeds")
	}
	for i := 0; i < w1.KB.NumEntities(); i++ {
		if w1.KB.Entity(kb.EntityID(i)).Name != w2.KB.Entity(kb.EntityID(i)).Name {
			t.Fatal("entity names differ across identical seeds")
		}
	}
	d1 := w1.GenerateCorpus(CoNLLSpec(3, 1))
	d2 := w2.GenerateCorpus(CoNLLSpec(3, 1))
	for i := range d1 {
		if d1[i].Text != d2[i].Text {
			t.Fatal("documents differ across identical seeds")
		}
	}
}

func TestGenerateKBShape(t *testing.T) {
	w := testWorld(t)
	if w.KB.NumEntities() != 400 {
		t.Fatalf("want 400 entities, got %d", w.KB.NumEntities())
	}
	// Every entity has keyphrases and a domain.
	for _, e := range w.KB.Entities() {
		if len(e.Keyphrases) == 0 {
			t.Fatalf("entity %s has no keyphrases", e.Name)
		}
		if e.Domain == "" {
			t.Fatalf("entity %s has no domain", e.Name)
		}
	}
}

func TestAmbiguityExists(t *testing.T) {
	w := testWorld(t)
	ambiguous := 0
	for _, name := range w.KB.Names() {
		if len(w.KB.Candidates(name)) > 1 {
			ambiguous++
		}
	}
	if ambiguous < 20 {
		t.Fatalf("world has too little ambiguity: %d ambiguous names", ambiguous)
	}
}

func TestPopularityZipf(t *testing.T) {
	w := testWorld(t)
	p0 := w.meta[0].Popularity
	pLast := w.meta[len(w.meta)-1].Popularity
	if p0 <= pLast {
		t.Fatal("popularity should decrease with rank")
	}
	if p0/pLast < 50 {
		t.Fatalf("popularity skew too flat: head=%v tail=%v", p0, pLast)
	}
}

func TestClusterCoherence(t *testing.T) {
	w := testWorld(t)
	// Same-cluster entities must be more related than cross-domain ones.
	var a, b, c kb.EntityID = -1, -1, -1
	clusterA, domA := w.meta[0].Cluster, w.meta[0].Domain
	a = 0
	for i := 1; i < w.KB.NumEntities(); i++ {
		id := kb.EntityID(i)
		dom, cl := w.meta[id].Domain, w.meta[id].Cluster
		if b < 0 && cl == clusterA && id != a {
			b = id
		}
		if c < 0 && dom != domA {
			c = id
		}
	}
	if b < 0 || c < 0 {
		t.Skip("world too small for cluster test")
	}
	if w.TrueRelatedness(a, b) <= w.TrueRelatedness(a, c) {
		t.Fatalf("cluster mate %v not more related than cross-domain %v",
			w.TrueRelatedness(a, b), w.TrueRelatedness(a, c))
	}
}

func TestTrueRelatednessSymmetricBounded(t *testing.T) {
	w := testWorld(t)
	for i := 0; i < 50; i++ {
		a := kb.EntityID(i % w.KB.NumEntities())
		b := kb.EntityID((i * 7) % w.KB.NumEntities())
		ra, rb := w.TrueRelatedness(a, b), w.TrueRelatedness(b, a)
		if ra != rb {
			t.Fatalf("relatedness asymmetric: %v vs %v", ra, rb)
		}
		if ra < 0 || ra > 1 {
			t.Fatalf("relatedness out of range: %v", ra)
		}
	}
	if w.TrueRelatedness(3, 3) != 1 {
		t.Fatal("self relatedness must be 1")
	}
}

func TestCoNLLCorpusShape(t *testing.T) {
	w := testWorld(t)
	docs := w.GenerateCorpus(CoNLLSpec(30, 9))
	if len(docs) != 30 {
		t.Fatalf("want 30 docs, got %d", len(docs))
	}
	stats := w.Stats(docs)
	if stats.AvgMentionsPerDoc < 10 || stats.AvgMentionsPerDoc > 35 {
		t.Errorf("mentions per doc out of CoNLL range: %v", stats.AvgMentionsPerDoc)
	}
	frac := float64(stats.MentionsNoEntity) / float64(stats.Mentions)
	if frac < 0.08 || frac > 0.35 {
		t.Errorf("OOE fraction %v not near the configured 20%%", frac)
	}
	// Every in-KB gold mention must be resolvable through the dictionary.
	for _, d := range docs {
		for _, m := range d.Mentions {
			if m.Entity == kb.NoEntity {
				continue
			}
			found := false
			for _, c := range w.KB.Candidates(m.Surface) {
				if c.Entity == m.Entity {
					found = true
				}
			}
			if !found {
				t.Fatalf("gold mention %q → %d unreachable via dictionary", m.Surface, m.Entity)
			}
		}
	}
}

func TestSurfacesHaveNoParentheticals(t *testing.T) {
	// Running text never writes "Kashmir (song)"; the display surface is
	// the base name, which the dictionary resolves.
	w := testWorld(t)
	docs := w.GenerateCorpus(CoNLLSpec(10, 17))
	for _, d := range docs {
		for _, m := range d.Mentions {
			if strings.Contains(m.Surface, " (") {
				t.Fatalf("parenthetical surface leaked into text: %q", m.Surface)
			}
		}
	}
}

func TestJargonWordsUnique(t *testing.T) {
	seen := map[string]int{}
	for _, base := range []int{jargonClusterBase, jargonOOEBase, jargonEventBase, jargonEntityBase} {
		for i := 0; i < 300; i++ {
			w := jargonWord(base + i)
			if prev, dup := seen[w]; dup && prev != base+i {
				t.Fatalf("jargon collision: index %d and %d both map to %q", prev, base+i, w)
			}
			seen[w] = base + i
		}
	}
}

func TestMentionSurfaceInText(t *testing.T) {
	w := testWorld(t)
	docs := w.GenerateCorpus(CoNLLSpec(5, 3))
	for _, d := range docs {
		for _, m := range d.Mentions {
			if !strings.Contains(d.Text, m.Surface) {
				t.Fatalf("surface %q missing from text", m.Surface)
			}
		}
	}
}

func TestHardCorpusIsHard(t *testing.T) {
	w := testWorld(t)
	hard := w.GenerateCorpus(HardSpec(20, 5))
	stats := w.Stats(hard)
	if stats.AvgMentionsPerDoc > 5 {
		t.Errorf("hard split should have few mentions per doc, got %v", stats.AvgMentionsPerDoc)
	}
	easy := w.GenerateCorpus(CoNLLSpec(20, 5))
	estats := w.Stats(easy)
	if stats.AvgWordsPerDoc >= estats.AvgWordsPerDoc {
		t.Errorf("hard split should be shorter: %v vs %v", stats.AvgWordsPerDoc, estats.AvgWordsPerDoc)
	}
}

func TestNewsStreamDays(t *testing.T) {
	w := testWorld(t)
	docs := w.NewsStream(DefaultNewsSpec(4, 6, 11))
	if len(docs) != 24 {
		t.Fatalf("want 24 docs, got %d", len(docs))
	}
	seenEE := false
	for _, d := range docs {
		if d.Day < 1 || d.Day > 4 {
			t.Fatalf("bad day %d", d.Day)
		}
		for _, m := range d.Mentions {
			if m.Entity == kb.NoEntity {
				seenEE = true
				if m.OOEName == "" {
					t.Fatal("OOE mention without identity")
				}
			}
		}
	}
	if !seenEE {
		t.Fatal("news stream contains no emerging entities")
	}
}

func TestOOEBirthDayRespected(t *testing.T) {
	w := testWorld(t)
	byName := map[string]int{}
	for _, o := range w.OOE {
		byName[o.Name] = o.BirthDay
	}
	docs := w.NewsStream(DefaultNewsSpec(5, 5, 13))
	for _, d := range docs {
		for _, m := range d.Mentions {
			if m.OOEName == "" {
				continue
			}
			if birth, ok := byName[m.OOEName]; !ok || birth > d.Day {
				t.Fatalf("emerging entity %q appears on day %d before birth %d", m.OOEName, d.Day, birth)
			}
		}
	}
}

func TestOOECollisions(t *testing.T) {
	w := testWorld(t)
	colliding := 0
	for _, o := range w.OOE {
		if o.CollidesWithKB {
			colliding++
			if !w.KB.HasName(kb.NormalizeName(o.Surface)) {
				t.Fatalf("OOE %q marked colliding but name unknown to KB", o.Surface)
			}
		}
		if len(o.Keyphrases) == 0 {
			t.Fatalf("OOE %q has no keyphrases", o.Name)
		}
	}
	if colliding == 0 {
		t.Fatal("no OOE entity collides with the KB — the hard case is missing")
	}
}

func TestRelatednessGold(t *testing.T) {
	w := testWorld(t)
	spec := DefaultGoldSpec(3)
	spec.SeedsPerDomain = 2
	spec.Candidates = 10
	gold := w.RelatednessGold(spec)
	if len(gold) == 0 {
		t.Fatal("no gold seeds generated")
	}
	for _, g := range gold {
		if len(g.GoldOrder) != len(g.Candidates) {
			t.Fatalf("gold order length mismatch")
		}
		seen := map[int]bool{}
		for _, idx := range g.GoldOrder {
			if idx < 0 || idx >= len(g.Candidates) || seen[idx] {
				t.Fatalf("gold order is not a permutation: %v", g.GoldOrder)
			}
			seen[idx] = true
		}
	}
}

func TestGoldRankingCorrelatesWithTruth(t *testing.T) {
	// With 5 judges and moderate noise, the aggregated ranking must put
	// highly related candidates ahead of remote ones most of the time.
	w := testWorld(t)
	spec := DefaultGoldSpec(5)
	spec.SeedsPerDomain = 2
	gold := w.RelatednessGold(spec)
	better := 0
	total := 0
	for _, g := range gold {
		first := g.Candidates[g.GoldOrder[0]]
		last := g.Candidates[g.GoldOrder[len(g.GoldOrder)-1]]
		if w.TrueRelatedness(g.Seed, first) > w.TrueRelatedness(g.Seed, last) {
			better++
		}
		total++
	}
	if float64(better) < 0.8*float64(total) {
		t.Fatalf("aggregated ranking too noisy: %d/%d correct extremes", better, total)
	}
}

func TestStatsCounts(t *testing.T) {
	w := testWorld(t)
	docs := w.GenerateCorpus(CoNLLSpec(10, 21))
	s := w.Stats(docs)
	if s.Docs != 10 || s.Mentions == 0 {
		t.Fatalf("bad stats: %+v", s)
	}
	if s.AvgCandidatesPerMention <= 1 {
		t.Errorf("expected ambiguity in corpus, got avg candidates %v", s.AvgCandidatesPerMention)
	}
}

func BenchmarkGenerateWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: int64(i), Entities: 400})
	}
}

func BenchmarkGenerateCorpus(b *testing.B) {
	w := Generate(Config{Seed: 1, Entities: 400})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.GenerateCorpus(CoNLLSpec(10, int64(i)))
	}
}
