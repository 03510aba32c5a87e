package aida

// The entity-centric search application of Sec. 6.1 ("Searching for
// Strings, Things, and Cats"), kept beside the Chapter 6 integration test
// that measures it: an inverted index over words (strings), disambiguated
// entities (things) and their semantic types (cats), with combined queries.

import (
	"math"
	"sort"
	"testing"

	"aida/internal/kb"
	"aida/internal/tokenizer"
)

// searchHit is one ranked search result.
type searchHit struct {
	DocID string
	Score float64
}

// searchQuery combines the three search dimensions. All parts are
// conjunctive across dimensions and disjunctive within (standard STICS
// semantics).
type searchQuery struct {
	Words    []string      // strings
	Entities []kb.EntityID // things
	Types    []string      // cats: expands to all entities of the type
}

// searchIndex is the strings+things+cats inverted index. Create with
// newSearchIndex, then add; queries are safe once indexing is done.
type searchIndex struct {
	wordDocs map[string]map[string]int      // word → doc → tf
	entDocs  map[kb.EntityID]map[string]int // entity → doc → tf
	docLen   map[string]int
	// typeEntities expands a type to its entities.
	typeEntities map[string][]kb.EntityID
	numDocs      int
}

// newSearchIndex creates an empty index over the given KB.
func newSearchIndex(k kb.Store) *searchIndex {
	ix := &searchIndex{
		wordDocs:     make(map[string]map[string]int),
		entDocs:      make(map[kb.EntityID]map[string]int),
		docLen:       make(map[string]int),
		typeEntities: make(map[string][]kb.EntityID),
	}
	for id := 0; id < k.NumEntities(); id++ {
		e := k.Entity(kb.EntityID(id))
		for _, t := range e.Types {
			ix.typeEntities[t] = append(ix.typeEntities[t], e.ID)
		}
	}
	return ix
}

// add indexes a document's words and entity annotations.
func (ix *searchIndex) add(docID, text string, annotations []Annotation) {
	words := tokenizer.ContentWords(text)
	for _, w := range words {
		m := ix.wordDocs[w]
		if m == nil {
			m = make(map[string]int)
			ix.wordDocs[w] = m
		}
		m[docID]++
	}
	for _, a := range annotations {
		if a.Entity == kb.NoEntity {
			continue
		}
		m := ix.entDocs[a.Entity]
		if m == nil {
			m = make(map[string]int)
			ix.entDocs[a.Entity] = m
		}
		m[docID]++
	}
	ix.docLen[docID] = len(words)
	ix.numDocs++
}

// idf of a posting list.
func (ix *searchIndex) idf(df int) float64 {
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// search ranks documents by the tf-idf sum over all query dimensions.
// Documents must match at least one term per non-empty dimension.
func (ix *searchIndex) search(q searchQuery, limit int) []searchHit {
	scores := map[string]float64{}
	wordMatch := map[string]bool{}
	entMatch := map[string]bool{}

	for _, w := range q.Words {
		postings := ix.wordDocs[tokenizer.Normalize(w)]
		idf := ix.idf(len(postings))
		for doc, tf := range postings {
			scores[doc] += float64(float64(tf) * idf)
			wordMatch[doc] = true
		}
	}
	ents := append([]kb.EntityID(nil), q.Entities...)
	for _, t := range q.Types {
		ents = append(ents, ix.typeEntities[t]...)
	}
	for _, e := range ents {
		postings := ix.entDocs[e]
		idf := ix.idf(len(postings))
		for doc, tf := range postings {
			// Entity matches are exact semantic evidence: weighted above
			// plain word matches.
			scores[doc] += float64(2 * float64(tf) * idf)
			entMatch[doc] = true
		}
	}

	var hits []searchHit
	for doc, s := range scores {
		if len(q.Words) > 0 && !wordMatch[doc] {
			continue
		}
		if (len(q.Entities) > 0 || len(q.Types) > 0) && !entMatch[doc] {
			continue
		}
		// Light length normalization.
		norm := 1 + math.Log(1+float64(ix.docLen[doc]))
		hits = append(hits, searchHit{DocID: doc, Score: s / norm})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

func buildSearchKB() (*kb.KB, kb.EntityID, kb.EntityID, kb.EntityID) {
	b := kb.NewBuilder()
	dylan := b.AddEntity("Bob Dylan", "music", "person", "musician")
	page := b.AddEntity("Jimmy Page", "music", "person", "musician")
	carter := b.AddEntity("Jimmy Carter", "politics", "person", "politician")
	b.AddKeyphrase(dylan, "folk singer")
	b.AddKeyphrase(page, "rock guitarist")
	b.AddKeyphrase(carter, "united states president")
	return b.Build(), dylan, page, carter
}

func TestSearchByWord(t *testing.T) {
	k, dylan, _, _ := buildSearchKB()
	ix := newSearchIndex(k)
	ix.add("d1", "Dylan released a folk record in 1976.", []Annotation{{Entity: dylan}})
	ix.add("d2", "The game ended in a draw.", nil)
	hits := ix.search(searchQuery{Words: []string{"folk"}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d1" {
		t.Fatalf("got %v", hits)
	}
}

func TestSearchByEntity(t *testing.T) {
	k, dylan, page, _ := buildSearchKB()
	ix := newSearchIndex(k)
	ix.add("d1", "Dylan played in Newport.", []Annotation{{Entity: dylan}})
	ix.add("d2", "Page played his guitar.", []Annotation{{Entity: page}})
	hits := ix.search(searchQuery{Entities: []kb.EntityID{page}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d2" {
		t.Fatalf("entity query failed: %v", hits)
	}
}

func TestSearchByType(t *testing.T) {
	k, dylan, page, carter := buildSearchKB()
	ix := newSearchIndex(k)
	ix.add("d1", "Dylan sang.", []Annotation{{Entity: dylan}})
	ix.add("d2", "Page played.", []Annotation{{Entity: page}})
	ix.add("d3", "Carter spoke.", []Annotation{{Entity: carter}})
	hits := ix.search(searchQuery{Types: []string{"musician"}}, 0)
	if len(hits) != 2 {
		t.Fatalf("type query should hit 2 docs, got %v", hits)
	}
	hits = ix.search(searchQuery{Types: []string{"politician"}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d3" {
		t.Fatalf("politician query: %v", hits)
	}
}

func TestSearchConjunctiveDimensions(t *testing.T) {
	k, dylan, page, _ := buildSearchKB()
	ix := newSearchIndex(k)
	ix.add("d1", "Dylan sang a folk song.", []Annotation{{Entity: dylan}})
	ix.add("d2", "Page wrote a folk tune.", []Annotation{{Entity: page}})
	// Word "folk" matches both; entity narrows to d1.
	hits := ix.search(searchQuery{Words: []string{"folk"}, Entities: []kb.EntityID{dylan}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d1" {
		t.Fatalf("conjunctive query: %v", hits)
	}
}

func TestSearchRankingPrefersFrequency(t *testing.T) {
	k, dylan, _, _ := buildSearchKB()
	ix := newSearchIndex(k)
	ix.add("often", "folk folk folk music.", []Annotation{{Entity: dylan}})
	ix.add("once", "folk is nice overall really.", nil)
	hits := ix.search(searchQuery{Words: []string{"folk"}}, 0)
	if len(hits) != 2 || hits[0].DocID != "often" {
		t.Fatalf("tf ranking wrong: %v", hits)
	}
}

func TestSearchLimit(t *testing.T) {
	k, dylan, _, _ := buildSearchKB()
	ix := newSearchIndex(k)
	for i := 0; i < 5; i++ {
		ix.add(string(rune('a'+i)), "folk music", []Annotation{{Entity: dylan}})
	}
	if hits := ix.search(searchQuery{Words: []string{"folk"}}, 3); len(hits) != 3 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
}

func TestNoEntityAnnotationIgnored(t *testing.T) {
	k, _, _, _ := buildSearchKB()
	ix := newSearchIndex(k)
	ix.add("d1", "text", []Annotation{{Entity: kb.NoEntity}})
	if hits := ix.search(searchQuery{Types: []string{"person"}}, 0); len(hits) != 0 {
		t.Fatalf("OOE annotations must not be indexed: %v", hits)
	}
}
