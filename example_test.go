package aida_test

import (
	"context"
	"fmt"
	"slices"

	"aida"
)

// exampleKB builds the dissertation's running example world: two Pages,
// two Kashmirs, and a densely linked music cluster.
func exampleKB() *aida.KB {
	b := aida.NewKBBuilder()
	jimmy := b.AddEntity("Jimmy Page", "music", "person")
	larry := b.AddEntity("Larry Page", "tech", "person")
	song := b.AddEntity("Kashmir (song)", "music", "work")
	region := b.AddEntity("Kashmir", "geography", "location")
	zep := b.AddEntity("Led Zeppelin", "music", "band")
	plant := b.AddEntity("Robert Plant", "music", "person")

	b.AddName("Page", larry, 60)
	b.AddName("Page", jimmy, 30)
	b.AddName("Kashmir", region, 90)
	b.AddName("Kashmir", song, 10)
	b.AddName("Plant", plant, 10)

	music := []aida.EntityID{jimmy, song, zep, plant}
	for _, x := range music {
		for _, y := range music {
			if x != y {
				b.AddLink(x, y)
			}
		}
	}
	b.AddKeyphrase(jimmy, "English rock guitarist")
	b.AddKeyphrase(jimmy, "unusual chords")
	b.AddKeyphrase(larry, "search engine")
	b.AddKeyphrase(song, "hard rock")
	b.AddKeyphrase(song, "performed live")
	b.AddKeyphrase(region, "disputed territory")
	b.AddKeyphrase(zep, "English rock band")
	b.AddKeyphrase(plant, "English rock singer")
	return b.Build()
}

// ExampleSystem_Relatedness compares entity pairs under two measures: the
// link-based Milne–Witten (MW) and the keyphrase-overlap KORE, which needs
// no link structure. Each call computes its pair from the serving KB, so a
// repeated query returns the same value.
func ExampleSystem_Relatedness() {
	k := exampleKB()
	sys := aida.New(k)
	jimmy, _ := k.EntityByName("Jimmy Page")
	larry, _ := k.EntityByName("Larry Page")
	zep, _ := k.EntityByName("Led Zeppelin")

	for _, q := range []struct {
		kind       aida.RelatednessKind
		who, again string
		a          aida.EntityID
	}{
		{aida.MW, "Jimmy", "", jimmy},
		{aida.MW, "Larry", "", larry},
		{aida.KORE, "Jimmy", "", jimmy},
		{aida.KORE, "Larry", "", larry},
		{aida.KORE, "Jimmy", " again", jimmy},
	} {
		v, err := sys.Relatedness(q.kind, q.a, zep)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-4s(%s Page, Led Zeppelin) = %.3f%s\n", q.kind, q.who, v, q.again)
	}
	// Output:
	// MW  (Jimmy Page, Led Zeppelin) = 0.415
	// MW  (Larry Page, Led Zeppelin) = 0.000
	// KORE(Jimmy Page, Led Zeppelin) = 0.018
	// KORE(Larry Page, Led Zeppelin) = 0.000
	// KORE(Jimmy Page, Led Zeppelin) = 0.018 again
}

// ExampleSystem_AnnotateDoc annotates one document through the
// context-aware request API, selecting the prior-only baseline and the
// disambiguation work counters for this request only.
func ExampleSystem_AnnotateDoc() {
	sys := aida.New(exampleKB())
	text := "They performed Kashmir, written by Page and Plant."

	doc, err := sys.AnnotateDoc(context.Background(), text)
	if err != nil {
		fmt.Println("annotate:", err)
		return
	}
	for _, a := range doc.Annotations {
		fmt.Printf("aida : %-7s → %s\n", a.Mention.Text, a.Label)
	}

	// Per-request options never touch the System: the same System serves
	// a different method on the next call.
	prior, err := sys.AnnotateDoc(context.Background(), text, aida.UseMethodNamed("prior"))
	if err != nil {
		fmt.Println("annotate:", err)
		return
	}
	for _, a := range prior.Annotations {
		fmt.Printf("prior: %-7s → %s\n", a.Mention.Text, a.Label)
	}
	// Output:
	// aida : Kashmir → Kashmir (song)
	// aida : Page    → Jimmy Page
	// aida : Plant   → Robert Plant
	// prior: Kashmir → Kashmir
	// prior: Page    → Larry Page
	// prior: Plant   → Robert Plant
}

// ExampleSystem_AnnotateDoc_mentions links given mention surfaces — the
// paper's setting of gold mention spans — instead of recognized ones, and
// blends in a request context: the interest keyphrases of the user who
// wrote the text. Each surface is located after the previous one, so the
// annotations carry their offsets.
func ExampleSystem_AnnotateDoc_mentions() {
	sys := aida.New(exampleKB())
	text := "Page spoke, and the crowd cheered for Page."
	for _, interest := range []string{"search engine", "English rock guitarist"} {
		doc, err := sys.AnnotateDoc(context.Background(), text,
			aida.WithMentions("Page", "Page"), aida.WithContext(interest))
		if err != nil {
			fmt.Println("annotate:", err)
			return
		}
		for _, a := range doc.Annotations {
			fmt.Printf("%-24s %s [%d,%d) → %s\n", interest+":", a.Mention.Text, a.Mention.Start, a.Mention.End, a.Label)
		}
	}
	// Output:
	// search engine:           Page [0,4) → Larry Page
	// search engine:           Page [38,42) → Larry Page
	// English rock guitarist:  Page [0,4) → Jimmy Page
	// English rock guitarist:  Page [38,42) → Jimmy Page
}

// ExampleSystem_AnnotateCorpus annotates an in-memory corpus concurrently
// and returns the documents in input order. The per-request IncludeStats
// adds each document's disambiguation work counters without touching the
// System, so the next request can leave them out.
func ExampleSystem_AnnotateCorpus() {
	sys := aida.New(exampleKB())
	docs := []string{
		"They performed Kashmir, written by Page and Plant.",
		"Page played unusual chords with Led Zeppelin.",
		"Plant sang while Page played.",
	}
	corpus, err := sys.AnnotateCorpus(context.Background(), docs, aida.WithParallelism(2), aida.IncludeStats())
	if err != nil {
		fmt.Println("corpus:", err)
		return
	}
	for _, doc := range corpus {
		fmt.Printf("doc %d: %d mentions, %d comparisons, %d graph entities\n",
			doc.Index, len(doc.Annotations), doc.Stats.Comparisons, doc.Stats.GraphEntities)
		for _, a := range doc.Annotations {
			fmt.Printf("  %-12s → %s\n", a.Mention.Text, a.Label)
		}
	}
	// Output:
	// doc 0: 3 mentions, 8 comparisons, 5 graph entities
	//   Kashmir      → Kashmir (song)
	//   Page         → Jimmy Page
	//   Plant        → Robert Plant
	// doc 1: 2 mentions, 2 comparisons, 3 graph entities
	//   Page         → Jimmy Page
	//   Led Zeppelin → Led Zeppelin
	// doc 2: 2 mentions, 2 comparisons, 3 graph entities
	//   Plant        → Robert Plant
	//   Page         → Jimmy Page
}

// ExampleSystem_AnnotateStream streams a document sequence through the
// concurrent annotator: documents are processed by two workers, yet
// results arrive strictly in input order and are byte-identical to a
// sequential AnnotateDoc loop. Canceling the context would end the stream
// with ctx.Err() instead of annotating the remaining documents.
func ExampleSystem_AnnotateStream() {
	sys := aida.New(exampleKB())
	docs := []string{
		"They performed Kashmir, written by Page and Plant.",
		"Page played unusual chords with Led Zeppelin.",
		"Kashmir remains a disputed territory.",
	}
	for doc, err := range sys.AnnotateStream(context.Background(), slices.Values(docs), aida.WithParallelism(2)) {
		if err != nil {
			fmt.Println("stream:", err)
			return
		}
		for _, a := range doc.Annotations {
			fmt.Printf("doc %d: %-12s → %s\n", doc.Index, a.Mention.Text, a.Label)
		}
	}
	// Output:
	// doc 0: Kashmir      → Kashmir (song)
	// doc 0: Page         → Jimmy Page
	// doc 0: Plant        → Robert Plant
	// doc 1: Page         → Jimmy Page
	// doc 1: Led Zeppelin → Led Zeppelin
	// doc 2: Kashmir      → Kashmir
}
