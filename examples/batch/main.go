// Command batch demonstrates concurrent multi-document annotation over the
// shared scoring engine: the streaming AnnotateStream for indefinite feeds
// and AnnotateCorpus, which collects that same stream for an in-memory
// corpus. Both are cancellable via context and produce exactly the
// annotations a sequential AnnotateDoc loop would; under a keyphrase
// coherence measure the engine computes each KB-entity pair once per run
// (the default method's MW is computed per document and leaves it empty).
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"slices"

	"aida"
)

func main() {
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
	b.AddKeyphrase(region, "disputed territory")
	b.AddKeyphrase(zep, "English rock band")
	b.AddKeyphrase(plant, "English rock singer")

	sys := aida.New(b.Build())

	docs := []string{
		"They performed Kashmir, written by Page and Plant.",
		"Page played unusual chords with Led Zeppelin.",
		"The Kashmir region remains a disputed territory.",
		"Plant sang while Page played.",
	}

	// A context bounds every request; cancel it (timeout, Ctrl-C, client
	// disconnect) and in-flight scoring stops promptly with ctx.Err().
	ctx := context.Background()

	// Fixed corpus: one document per core at a time, results in input
	// order.
	fmt.Println("== AnnotateCorpus ==")
	corpus, err := sys.AnnotateCorpus(ctx, docs, aida.WithParallelism(runtime.GOMAXPROCS(0)))
	if err != nil {
		log.Fatal(err)
	}
	for _, doc := range corpus {
		for _, a := range doc.Annotations {
			fmt.Printf("doc %d: %-10s → %s\n", doc.Index, a.Mention.Text, a.Label)
		}
	}

	// Streaming: documents are annotated concurrently but yielded in
	// order, each as soon as it and its predecessors are ready; the feed
	// is pulled only a bounded window ahead, and breaking out of the loop
	// cancels what is in flight. Any iter.Seq[string] works (a channel
	// drain, a file scanner, ...).
	// Per-request options ride along: here the prior-only baseline plus
	// the disambiguation work counters.
	fmt.Println("== AnnotateStream ==")
	for doc, err := range sys.AnnotateStream(ctx, slices.Values(docs),
		aida.WithParallelism(2), aida.UseMethodNamed("prior"), aida.IncludeStats()) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("doc %d: %d mentions (%d comparisons)\n",
			doc.Index, len(doc.Annotations), doc.Stats.Comparisons)
	}

	// MW coherence is computed per document, so the engine — it memoizes the
	// keyphrase measures, see ExampleSystem_Relatedness — is still empty.
	st := sys.Scorer().Stats()
	fmt.Printf("engine pair cache after the MW runs: %d pairs, %d hits, %d misses\n", st.Pairs, st.Hits, st.Misses)
}
