package search

import (
	"testing"

	"aida/internal/kb"
)

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
	ix := NewIndex(k)
	ix.AddDocument("d1", "Dylan released a folk record in 1976.", []Annotation{{Entity: dylan, Surface: "Dylan"}})
	ix.AddDocument("d2", "The game ended in a draw.", nil)
	hits := ix.Search(Query{Words: []string{"folk"}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d1" {
		t.Fatalf("got %v", hits)
	}
}

func TestSearchByEntity(t *testing.T) {
	k, dylan, page, _ := buildSearchKB()
	ix := NewIndex(k)
	ix.AddDocument("d1", "Dylan played in Newport.", []Annotation{{Entity: dylan, Surface: "Dylan"}})
	ix.AddDocument("d2", "Page played his guitar.", []Annotation{{Entity: page, Surface: "Page"}})
	hits := ix.Search(Query{Entities: []kb.EntityID{page}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d2" {
		t.Fatalf("entity query failed: %v", hits)
	}
}

func TestSearchByType(t *testing.T) {
	k, dylan, page, carter := buildSearchKB()
	ix := NewIndex(k)
	ix.AddDocument("d1", "Dylan sang.", []Annotation{{Entity: dylan}})
	ix.AddDocument("d2", "Page played.", []Annotation{{Entity: page}})
	ix.AddDocument("d3", "Carter spoke.", []Annotation{{Entity: carter}})
	hits := ix.Search(Query{Types: []string{"musician"}}, 0)
	if len(hits) != 2 {
		t.Fatalf("type query should hit 2 docs, got %v", hits)
	}
	hits = ix.Search(Query{Types: []string{"politician"}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d3" {
		t.Fatalf("politician query: %v", hits)
	}
}

func TestSearchConjunctiveDimensions(t *testing.T) {
	k, dylan, page, _ := buildSearchKB()
	ix := NewIndex(k)
	ix.AddDocument("d1", "Dylan sang a folk song.", []Annotation{{Entity: dylan}})
	ix.AddDocument("d2", "Page wrote a folk tune.", []Annotation{{Entity: page}})
	// Word "folk" matches both; entity narrows to d1.
	hits := ix.Search(Query{Words: []string{"folk"}, Entities: []kb.EntityID{dylan}}, 0)
	if len(hits) != 1 || hits[0].DocID != "d1" {
		t.Fatalf("conjunctive query: %v", hits)
	}
}

func TestSearchRankingPrefersFrequency(t *testing.T) {
	k, dylan, _, _ := buildSearchKB()
	ix := NewIndex(k)
	ix.AddDocument("often", "folk folk folk music.", []Annotation{{Entity: dylan}})
	ix.AddDocument("once", "folk is nice overall really.", nil)
	hits := ix.Search(Query{Words: []string{"folk"}}, 0)
	if len(hits) != 2 || hits[0].DocID != "often" {
		t.Fatalf("tf ranking wrong: %v", hits)
	}
}

func TestSearchLimit(t *testing.T) {
	k, dylan, _, _ := buildSearchKB()
	ix := NewIndex(k)
	for i := 0; i < 5; i++ {
		ix.AddDocument(string(rune('a'+i)), "folk music", []Annotation{{Entity: dylan}})
	}
	if hits := ix.Search(Query{Words: []string{"folk"}}, 3); len(hits) != 3 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
}

func TestNoEntityAnnotationIgnored(t *testing.T) {
	k, _, _, _ := buildSearchKB()
	ix := NewIndex(k)
	ix.AddDocument("d1", "text", []Annotation{{Entity: kb.NoEntity, Surface: "Unknown"}})
	if hits := ix.Search(Query{Types: []string{"person"}}, 0); len(hits) != 0 {
		t.Fatalf("OOE annotations must not be indexed: %v", hits)
	}
}
