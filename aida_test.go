package aida

import (
	"bytes"
	"context"
	"testing"

	"aida/internal/experiments"
	"aida/internal/ner"
)

// demoKB builds the running example of the dissertation's Chapter 3.
func demoKB() *KB {
	b := NewKBBuilder()
	jimmy := b.AddEntity("Jimmy Page", "music", "person")
	larry := b.AddEntity("Larry Page", "tech", "person")
	song := b.AddEntity("Kashmir (song)", "music", "work")
	region := b.AddEntity("Kashmir", "geography", "location")
	zep := b.AddEntity("Led Zeppelin", "music", "band")
	plant := b.AddEntity("Robert Plant", "music", "person")
	gibson := b.AddEntity("Gibson Les Paul", "music", "instrument")

	b.AddName("Page", larry, 60)
	b.AddName("Page", jimmy, 30)
	b.AddName("Kashmir", region, 90)
	b.AddName("Kashmir", song, 10)
	b.AddName("Plant", plant, 10)
	b.AddName("Gibson", gibson, 10)

	music := []EntityID{jimmy, song, zep, plant, gibson}
	for _, a := range music {
		for _, c := range music {
			if a != c {
				b.AddLink(a, c)
			}
		}
	}
	b.AddKeyphrase(jimmy, "English rock guitarist")
	b.AddKeyphrase(jimmy, "unusual chords")
	b.AddKeyphrase(jimmy, "Gibson guitar")
	b.AddKeyphrase(larry, "search engine")
	b.AddKeyphrase(song, "hard rock")
	b.AddKeyphrase(song, "performed live")
	b.AddKeyphrase(region, "disputed territory")
	b.AddKeyphrase(zep, "English rock band")
	b.AddKeyphrase(plant, "English rock singer")
	b.AddKeyphrase(gibson, "electric guitar")
	return b.Build()
}

func TestSystemAnnotate(t *testing.T) {
	sys := New(demoKB())
	anns := annotateDoc(t, sys, "They performed Kashmir, written by Page and Plant. Page played unusual chords on his Gibson.")
	if len(anns) < 4 {
		t.Fatalf("want at least 4 annotations, got %d", len(anns))
	}
	byText := map[string]string{}
	for _, a := range anns {
		byText[a.Mention.Text] = a.Label
	}
	if byText["Kashmir"] != "Kashmir (song)" {
		t.Errorf("Kashmir → %q, want the song", byText["Kashmir"])
	}
	if byText["Page"] != "Jimmy Page" {
		t.Errorf("Page → %q, want Jimmy Page", byText["Page"])
	}
}

func TestSystemRecognize(t *testing.T) {
	sys := New(demoKB())
	anns := annotateDoc(t, sys, "Plant sang while Page played.")
	if len(anns) != 2 {
		t.Fatalf("want 2 mentions, got %v", anns)
	}
}

func TestSystemDisambiguateExplicitMentions(t *testing.T) {
	sys := New(demoKB())
	anns := annotateDoc(t, sys, "Kashmir is a disputed territory.", WithMentions("Kashmir"))
	if anns[0].Label != "Kashmir" {
		t.Errorf("geography context should pick the region, got %q", anns[0].Label)
	}
	// Given surfaces are placed left to right, each after the previous one.
	anns = annotateDoc(t, sys, "Page met Page.", WithMentions("Page", "Page"))
	if len(anns) != 2 || anns[0].Mention.Start != 0 || anns[1].Mention.Start != 9 || anns[1].Mention.End != 13 {
		t.Errorf("given mentions misplaced: %+v", anns)
	}
	// A surface is placed on whole tokens only: "Page" inside the earlier
	// "Pageant" is skipped, and the token and sentence indexes are those
	// of the covered tokens.
	anns = annotateDoc(t, sys, "The Pageant ended. Then Jimmy Page played.", WithMentions("Page", "played"))
	want := []ner.Mention{
		{Text: "Page", Start: 30, End: 34, TokenStart: 6, TokenEnd: 7, Sentence: 1},
		{Text: "played", Start: 35, End: 41, TokenStart: 7, TokenEnd: 8, Sentence: 1},
	}
	if len(anns) != len(want) || anns[0].Mention != want[0] || anns[1].Mention != want[1] {
		t.Errorf("given mentions = %+v, want mentions %+v", anns, want)
	}
	// A multi-token surface must end on a token end too.
	anns = annotateDoc(t, sys, "Jimmy Pageant met Jimmy Page.", WithMentions("Jimmy Page"))
	if m := anns[0].Mention; m.Start != 18 || m.End != 28 || m.TokenStart != 3 || m.TokenEnd != 5 {
		t.Errorf("multi-token given mention = %+v, want bytes 18-28, tokens 3-5", m)
	}
}

func TestSystemWithOptions(t *testing.T) {
	prior, _ := MethodByName("prior")
	sys := New(demoKB(), WithMethod(prior), WithMaxCandidates(1))
	doc, err := sys.AnnotateDoc(context.Background(), "Page spoke.", WithMentions("Page"), IncludeCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Annotations[0].Label != "Larry Page" {
		t.Errorf("prior-only should pick Larry Page, got %q", doc.Annotations[0].Label)
	}
	if got := len(doc.Candidates[0]); got != 1 {
		t.Errorf("candidate cap ignored: %d", got)
	}
}

// relate is System.Relatedness, failing the test on error.
func relate(t testing.TB, sys *System, kind RelatednessKind, a, b EntityID) float64 {
	t.Helper()
	v, err := sys.Relatedness(kind, a, b)
	if err != nil {
		t.Fatalf("Relatedness(%v, %d, %d): %v", kind, a, b, err)
	}
	return v
}

func TestSystemRelatedness(t *testing.T) {
	k := demoKB()
	sys := New(k)
	jimmy, _ := k.EntityByName("Jimmy Page")
	zep, _ := k.EntityByName("Led Zeppelin")
	region, _ := k.EntityByName("Kashmir")
	// KPCS is excluded: it matches phrases atomically and the demo entities
	// share no identical phrase.
	for _, kind := range []RelatednessKind{MW, KORE, KWCS} {
		intra := relate(t, sys, kind, jimmy, zep)
		inter := relate(t, sys, kind, jimmy, region)
		if intra <= inter {
			t.Errorf("%v: music pair %v should beat cross-domain %v", kind, intra, inter)
		}
	}
}

func TestSystemConfidence(t *testing.T) {
	sys := New(demoKB())
	doc, err := sys.AnnotateDoc(context.Background(), "Page played unusual chords.", WithMentions("Page"), IncludeConfidence(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if conf := doc.Confidence; len(conf) != 1 || conf[0] < 0 || conf[0] > 1 {
		t.Fatalf("bad confidence: %v", conf)
	}
}

// TestSystemDiscoverEmerging runs Chapter 5's emerging-entity pipeline over
// a System's serving generation, as the experiments drive it.
func TestSystemDiscoverEmerging(t *testing.T) {
	sys := New(demoKB())
	pl := &experiments.Pipeline{KB: sys.Live().Store}
	surfaces := []string{"Snowden"}
	var chunk []experiments.ChunkDoc
	for _, text := range []string{
		"The whistleblower Snowden revealed a secret surveillance program.",
		"Officials said Snowden leaked the intelligence files.",
	} {
		chunk = append(chunk, experiments.ChunkDoc{Text: text, Surfaces: surfaces})
	}
	// "Snowden" is not in the demo KB at all: trivially emerging.
	p := pl.Problem("Snowden spoke about the surveillance program.", surfaces, nil)
	disc := experiments.Discover(sys.Method, p, pl.Models(chunk, surfaces, nil))
	if !disc.Emerging[0] {
		t.Fatal("unknown name should be discovered as emerging")
	}
}

func TestSystemSurfaceExpansion(t *testing.T) {
	b := NewKBBuilder()
	rubin := b.AddEntity("Rubin Carter", "sports", "person")
	jimmy := b.AddEntity("Jimmy Carter", "politics", "person")
	b.AddName("Carter", rubin, 5)
	b.AddName("Carter", jimmy, 95)
	b.AddKeyphrase(rubin, "middleweight boxer")
	b.AddKeyphrase(jimmy, "united states president")

	prior, _ := MethodByName("prior")
	sys := New(b.Build(), WithMethod(prior))
	text := "Rubin Carter fought. Carter won."
	surfaces := []string{"Rubin Carter", "Carter"}

	on := true
	plain := annotateDoc(t, sys, text, WithMentions(surfaces...))
	expanded := annotateDoc(t, sys, text, (&RequestSpec{Mentions: surfaces, Expand: &on}).Options()...)
	if plain[1].Label != "Jimmy Carter" {
		t.Skip("prior no longer misleads; premise gone")
	}
	if expanded[1].Label != "Rubin Carter" {
		t.Fatalf("expansion should resolve Carter, got %q", expanded[1].Label)
	}
}

func TestKBSaveLoadThroughFacade(t *testing.T) {
	k := demoKB()
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	k2, err := LoadKB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	anns := annotateDoc(t, New(k2), "Page played unusual chords on his Gibson.", WithMentions("Page"))
	if anns[0].Label != "Jimmy Page" {
		t.Errorf("loaded KB misbehaves: %q", anns[0].Label)
	}
}
