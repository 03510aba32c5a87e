// Package search implements the entity-centric search application of
// Sec. 6.1 ("Searching for Strings, Things, and Cats"): an inverted index
// over words (strings), disambiguated entities (things) and their semantic
// types (cats), with combined queries.
package search

import (
	"math"
	"sort"

	"aida/internal/kb"
	"aida/internal/tokenizer"
)

// Annotation marks a disambiguated entity occurrence in a document.
type Annotation struct {
	Entity  kb.EntityID
	Surface string
}

// Hit is one ranked search result.
type Hit struct {
	DocID string
	Score float64
}

// Query combines the three search dimensions. All parts are conjunctive
// across dimensions and disjunctive within (standard STICS semantics).
type Query struct {
	Words    []string      // strings
	Entities []kb.EntityID // things
	Types    []string      // cats: expands to all entities of the type
}

// Index is the strings+things+cats inverted index. Create with NewIndex,
// then AddDocument; queries are safe once indexing is done.
type Index struct {
	wordDocs map[string]map[string]int      // word → doc → tf
	entDocs  map[kb.EntityID]map[string]int // entity → doc → tf
	docLen   map[string]int
	// typeEntities expands a type to its entities.
	typeEntities map[string][]kb.EntityID
	numDocs      int
}

// NewIndex creates an empty index over the given KB (single or sharded).
func NewIndex(k kb.Store) *Index {
	ix := &Index{
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

// AddDocument indexes a document's words and entity annotations.
func (ix *Index) AddDocument(docID, text string, annotations []Annotation) {
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

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// idf of a posting list.
func (ix *Index) idf(df int) float64 {
	if df == 0 {
		return 0
	}
	return math.Log(1 + float64(ix.numDocs)/float64(df))
}

// Search ranks documents by the tf-idf sum over all query dimensions.
// Documents must match at least one term per non-empty dimension.
func (ix *Index) Search(q Query, limit int) []Hit {
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

	var hits []Hit
	for doc, s := range scores {
		if len(q.Words) > 0 && !wordMatch[doc] {
			continue
		}
		if (len(q.Entities) > 0 || len(q.Types) > 0) && !entMatch[doc] {
			continue
		}
		// Light length normalization.
		norm := 1 + math.Log(1+float64(ix.docLen[doc]))
		hits = append(hits, Hit{DocID: doc, Score: s / norm})
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
