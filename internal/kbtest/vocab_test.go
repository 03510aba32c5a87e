package kbtest

import (
	"bytes"
	"math"
	"testing"

	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/ner"
	"aida/internal/textstat"
	"aida/internal/tokenizer"
)

// The tests below hold the word-id scoring path — the store's vocabulary,
// the entities' compiled keyphrases, the integer cover kernel — to the
// readable string reference (textstat.Matcher's FindCover and ScoreCover, the
// computation the pipeline ran before ids existed) on every store shape and
// across generations, compared on the float bits.

// problemFor builds the problem the pipeline would for a text over a store.
func problemFor(s kb.Store, text string) *disambig.Problem {
	tokens := tokenizer.Tokenize(text)
	rec := ner.Recognizer{Lexicon: s}
	surfaces := ner.MentionSurfaces(rec.RecognizeTokens(text, tokens))
	return disambig.NewProblemFromWords(s, tokenizer.ContentWordsFromTokens(tokens), surfaces, MaxCandidates)
}

// refCover is a candidate's sim-k mass (Eq. 3.6) and best single cover
// (Eq. 3.4) against words, by the string reference.
func refCover(words []string, c *disambig.Candidate, idf func(string) float64) (sum, best float64) {
	m := textstat.NewMatcher(words)
	weight := func(w string) float64 {
		if npmi, ok := c.KeywordNPMI[w]; ok && npmi > 0 {
			return npmi
		}
		if v := idf(w); v > 0 {
			return v
		}
		return 0.1
	}
	for _, kp := range c.Keyphrases {
		if s := textstat.ScoreCover(m.FindCover(kp.Words), kp.Words, weight); s > 0 {
			sum += s
			best = max(best, s)
		}
	}
	return sum, best
}

// refBlend is ContextModel.Blend for a keyphrase-only model, by the string
// reference: w ← (1−cw)·w + cw·(sim against the context words, normalized
// over the mention).
func refBlend(cm *disambig.ContextModel, m *disambig.Mention, idf func(string) float64, w []float64) {
	raw := make([]float64, len(m.Candidates))
	var sum float64
	for j := range m.Candidates {
		raw[j], _ = refCover(cm.Words, &m.Candidates[j], idf)
		sum += raw[j]
	}
	for j := range w {
		ctx := 0.0
		if sum > 0 && raw[j] > 0 {
			ctx = raw[j] / sum
		}
		w[j] = float64((1-cm.Weight)*w[j]) + float64(cm.Weight*ctx)
	}
}

// assertScoresMatchReference checks RawSimScores, BestPhraseCover and Blend
// of one problem against the string reference and returns how many
// candidates scored above zero.
func assertScoresMatchReference(t *testing.T, where string, p *disambig.Problem, cm *disambig.ContextModel) (positive int) {
	t.Helper()
	got := disambig.RawSimScores(p)
	for i := range p.Mentions {
		m := &p.Mentions[i]
		for j := range m.Candidates {
			c := &m.Candidates[j]
			sum, best := refCover(p.ContextWords, c, p.WordIDF)
			if math.Float64bits(got[i][j]) != math.Float64bits(sum) {
				t.Fatalf("%s: sim of %q for %q = %v, reference %v", where, c.Label, m.Surface, got[i][j], sum)
			}
			if b := disambig.BestPhraseCover(p, c); math.Float64bits(b) != math.Float64bits(best) {
				t.Fatalf("%s: best cover of %q = %v, reference %v", where, c.Label, b, best)
			}
			if sum > 0 {
				positive++
			}
		}
		w, want := make([]float64, len(m.Candidates)), make([]float64, len(m.Candidates))
		for j := range w {
			w[j] = m.Candidates[j].Prior
			want[j] = w[j]
		}
		cm.Blend(p, i, w)
		refBlend(cm, m, p.WordIDF, want)
		for j := range w {
			if math.Float64bits(w[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: blended weight of %q = %v, reference %v", where, m.Candidates[j].Label, w[j], want[j])
			}
		}
	}
	return positive
}

// contextOf is a context model over the first keyphrases of a document's
// first candidates: words some candidates match and most do not.
func contextOf(p *disambig.Problem) *disambig.ContextModel {
	cm := &disambig.ContextModel{Weight: 0.35}
	for i := range p.Mentions {
		for _, c := range p.Mentions[i].Candidates {
			if len(c.Keyphrases) > 0 && len(cm.Words) < 12 {
				cm.Words = append(cm.Words, c.Keyphrases[0].Words...)
			}
		}
	}
	return cm
}

// TestSimScoresEveryStoreShape: on every shape a store comes in — the KB, a
// placement view, an overlay, a domain layer, a rebuild, a fleet — the id
// path scores every candidate of every golden document exactly as the string
// reference does, and shapes serving the same content agree with each other.
func TestSimScoresEveryStoreShape(t *testing.T) {
	k := GoldenKB()
	delta := GoldenDelta()
	overlay, err := kb.NewOverlay(k, delta)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := kb.Rebuild(k, delta)
	if err != nil {
		t.Fatal(err)
	}
	dict := goldenDomain()
	domain, err := kb.NewDomainLayer(overlay, dict)
	if err != nil {
		t.Fatal(err)
	}
	remote := StartFleet(t, k, 3, 1).Dial(t, kb.RemoteOptions{})
	shapes := []struct {
		NamedStore
		same int // index of a shape serving the same content, or -1
	}{
		{NamedStore{"kb", k}, -1},
		{NamedStore{"sharded-4", kb.Shard(k, 4)}, 0},
		{NamedStore{"remote", remote}, 0},
		{NamedStore{"overlay", overlay}, -1},
		{NamedStore{"rebuild", rebuilt}, 3},
		{NamedStore{"domain", domain}, -1},
	}
	docs := Docs(t)
	sims := make([][][][]float64, len(shapes))
	for si, sh := range shapes {
		positive := 0
		for _, d := range docs {
			p := problemFor(sh.Store, d.Text)
			positive += assertScoresMatchReference(t, sh.Name+"/"+d.Name, p, contextOf(p))
			sims[si] = append(sims[si], disambig.RawSimScores(p))
		}
		if positive == 0 {
			t.Fatalf("%s: no candidate of any golden document scored above zero", sh.Name)
		}
		if sh.same < 0 {
			continue
		}
		for di := range docs {
			a, b := sims[si][di], sims[sh.same][di]
			if len(a) != len(b) {
				t.Fatalf("%s/%s: %d mentions, %s has %d", sh.Name, docs[di].Name, len(a), shapes[sh.same].Name, len(b))
			}
			for i := range a {
				for j := range a[i] {
					if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
						t.Fatalf("%s/%s: sim[%d][%d] = %v, %s has %v", sh.Name, docs[di].Name, i, j, a[i][j], shapes[sh.same].Name, b[i][j])
					}
				}
			}
		}
	}
}

// lateWord is in no golden keyphrase, dictionary name or document.
const lateWord = "zyxquatl"

// TestStackedDeltasResolveLateIDF: a first delta adds an entity whose
// keyphrase has a word without any weight — no NPMI, no IDF — and a second
// delta supplies that word's IDF. The word must weigh the unknown-word
// minimum in the first generation and its IDF in the second: an unresolved
// fallback is never compiled into a form that outlives its generation. At
// both generations the overlay stack is indistinguishable from a rebuild.
func TestStackedDeltasResolveLateIDF(t *testing.T) {
	k := GoldenKB()
	known := k.Entity(5).Keyphrases[0].Words[0]
	const name = "Vexor Quillon"
	d1 := &kb.Delta{
		BaseEntities: k.NumEntities(),
		Entities: []kb.NewEntity{{
			Name: name, Domain: "emerging",
			Keyphrases:  []kb.Keyphrase{{Phrase: known + " " + lateWord, Words: []string{known, lateWord}, MI: 0.5}},
			KeywordNPMI: map[string]float64{known: 0.4},
		}},
	}
	d2 := &kb.Delta{BaseEntities: k.NumEntities() + 1, WordIDF: map[string]float64{lateWord: 3.5}}
	// The document has the late word but not the phrase's other word, so the
	// late word's weight decides the matched share of the phrase (Eq. 3.4).
	text := name + " announced " + lateWord + " yesterday."

	ov1, err := kb.NewOverlay(k, d1)
	if err != nil {
		t.Fatal(err)
	}
	ov2, err := kb.NewOverlay(ov1, d2)
	if err != nil {
		t.Fatal(err)
	}
	re1, err := kb.Rebuild(k, d1)
	if err != nil {
		t.Fatal(err)
	}
	re2, err := kb.Rebuild(re1, d2)
	if err != nil {
		t.Fatal(err)
	}

	simOf := func(s kb.Store, where string) float64 {
		t.Helper()
		p := problemFor(s, text)
		assertScoresMatchReference(t, where, p, contextOf(p))
		sims := disambig.RawSimScores(p)
		for i := range p.Mentions {
			for j, c := range p.Mentions[i].Candidates {
				if c.Label == name {
					return sims[i][j]
				}
			}
		}
		t.Fatalf("%s: %q is no candidate of the document", where, name)
		return 0
	}
	// Score generation 1 first, so that anything it compiled is there for
	// generation 2 to wrongly reuse.
	first, second := simOf(ov1, "overlay gen 1"), simOf(ov2, "overlay gen 2")
	if first <= 0 || first == second {
		t.Fatalf("sim of %q: %v before the word's IDF arrived, %v after — the late IDF changed nothing", name, first, second)
	}
	for _, g := range []struct {
		where   string
		rebuilt kb.Store
		want    float64
	}{{"rebuild gen 1", re1, first}, {"rebuild gen 2", re2, second}} {
		if got := simOf(g.rebuilt, g.where); math.Float64bits(got) != math.Float64bits(g.want) {
			t.Fatalf("%s: sim of %q = %v, the overlay stack has %v", g.where, name, got, g.want)
		}
	}
	if got, want := AnnotateJSON(t, NewSystem(ov2), text), AnnotateJSON(t, NewSystem(re2), text); !bytes.Equal(got, want) {
		t.Fatalf("overlay-of-overlay output differs from the rebuild's: %s", firstDiff(got, want))
	}
}

// TestLocalCandidatesScoreAsReference: candidates that carry features of
// their own — an emerging-entity placeholder, an Enricher-merged entity —
// with a keyphrase word that occurs in the document but not in the KB are
// compiled per problem and score exactly as the string reference has them:
// the document's out-of-vocabulary words can be matched.
func TestLocalCandidatesScoreAsReference(t *testing.T) {
	k := GoldenKB()
	doc := Docs(t)[0]
	text := "Observers said " + lateWord + " gravity. " + doc.Text
	p := problemFor(k, text)
	var mi int
	for mi = range p.Mentions {
		if len(p.Mentions[mi].Candidates) > 0 {
			break
		}
	}
	enriched := p.Mentions[mi].Candidates[0].Entity
	enricher := emerge.NewEnricher()
	enricher.Add(enriched, map[string]int{lateWord + " gravity": 3, "unheard phrase": 1})
	enricher.Enrich(p)
	p.Mentions[mi].Candidates = append(p.Mentions[mi].Candidates, disambig.Candidate{
		Entity: kb.NoEntity,
		Label:  p.Mentions[mi].Surface + "_EE",
		Keyphrases: []kb.Keyphrase{
			{Phrase: lateWord + " observers", Words: []string{lateWord, "observers"}},
			{Phrase: "nothing here", Words: []string{"qqnothing", "qqhere"}},
		},
		KeywordNPMI: map[string]float64{lateWord: 0.7},
		EdgeScale:   0.5,
	})
	assertScoresMatchReference(t, "local candidates", p, contextOf(p))

	sims := disambig.RawSimScores(p)
	plain := disambig.RawSimScores(problemFor(k, text))
	last := len(p.Mentions[mi].Candidates) - 1
	if sims[mi][last] <= 0 {
		t.Fatalf("placeholder sim = %v: its keyphrase word %q is in the document", sims[mi][last], lateWord)
	}
	if sims[mi][0] <= plain[mi][0] {
		t.Fatalf("enriched sim %v is not above the entity's own %v: the merged phrase's word %q is in the document", sims[mi][0], plain[mi][0], lateWord)
	}
}

// TestFirstUseCompileConcurrent: on a freshly loaded KB next to nothing is
// compiled yet, so eight goroutines annotating overlapping documents race
// each other — and the KB's own background pass — to compile the same
// entities on first use. Every output must equal a sequential run's over
// another fresh load; under -race this is the compiled side table's
// concurrency test.
func TestFirstUseCompileConcurrent(t *testing.T) {
	var file bytes.Buffer
	if err := GoldenKB().Save(&file); err != nil {
		t.Fatal(err)
	}
	load := func() *kb.KB {
		k, err := kb.Load(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	docs := Docs(t)
	docs = append(docs, docs...) // every document twice: the same entities compile in two goroutines
	seqSys := NewSystem(load())
	got := annotateConcurrently(t, NewSystem(load()), docs, 8)
	for i, d := range docs {
		if want := AnnotateJSON(t, seqSys, d.Text); !bytes.Equal(got[i], want) {
			t.Errorf("%s: concurrent first-use output differs from the sequential run: %s", d.Name, firstDiff(got[i], want))
		}
	}
}
