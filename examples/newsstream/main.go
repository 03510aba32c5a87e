// Newsstream: emerging-entity discovery over a simulated news stream
// (Chapter 5). A synthetic world provides a knowledge base and day-stamped
// articles in which new, out-of-KB entities appear under ambiguous names;
// the pipeline harvests keyphrases from the preceding days, enriches
// existing entities with high-confidence evidence, builds placeholder
// models by model difference, and separates emerging entities from the KB
// entities sharing their names.
package main

import (
	"fmt"

	"aida"
	"aida/internal/wiki"
)

func main() {
	world := wiki.Generate(wiki.Config{Seed: 11, Entities: 600})

	pl := &aida.EEPipeline{
		KB:            world.KB,
		MaxCandidates: 12,
		HarvestWindow: -1, // evidence is sentence-local in the generator
		Model: aida.EEModelConfig{
			MaxKeyphrases: 25,
			MinCount:      2,
		},
	}

	stream := world.NewsStream(wiki.DefaultNewsSpec(4, 8, 3))

	// Harvest chunk: all articles of days 1-3; evaluate on day 4.
	var chunk []aida.ChunkDoc
	var today []wiki.Document
	for _, d := range stream {
		if d.Day < 4 {
			chunk = append(chunk, aida.ChunkDoc{
				Text:     d.Text,
				Surfaces: dictSurfaces(world.KB, &d),
			})
		} else {
			today = append(today, d)
		}
	}
	enricher := pl.BuildEnricher(chunk)
	fmt.Printf("knowledge base: %d entities; chunk: %d articles; day 4: %d articles\n",
		world.KB.NumEntities(), len(chunk), len(today))
	fmt.Printf("keyphrases harvested for %d existing entities\n\n", enricher.Size())

	var found, goldEE, correctEE int
	for _, doc := range today {
		// Keep mentions that are ambiguous w.r.t. the dictionary — the
		// hard case where an emerging entity hides behind a known name.
		var surfaces []string
		var gold []wiki.GoldMention
		for _, gm := range doc.Mentions {
			if len(world.KB.Candidates(gm.Surface)) > 0 {
				surfaces = append(surfaces, gm.Surface)
				gold = append(gold, gm)
			}
		}
		if len(surfaces) == 0 {
			continue
		}
		disc := pl.Run(doc.Text, surfaces, chunk, enricher)
		for i, gm := range gold {
			if gm.Entity == aida.NoEntity {
				goldEE++
			}
			if disc.Emerging[i] {
				found++
				if gm.Entity == aida.NoEntity {
					correctEE++
					if correctEE <= 5 {
						fmt.Printf("  discovered emerging entity %q (truth: %s)\n",
							gm.Surface, gm.OOEName)
					}
				}
			}
		}
	}
	fmt.Printf("\nemerging entities: %d gold, %d predicted, %d correct\n", goldEE, found, correctEE)
	if found > 0 && goldEE > 0 {
		fmt.Printf("EE precision: %.1f%%  EE recall: %.1f%%\n",
			100*float64(correctEE)/float64(found),
			100*float64(correctEE)/float64(goldEE))
	}
}

func dictSurfaces(k *aida.KB, d *wiki.Document) []string {
	var out []string
	for _, gm := range d.Mentions {
		if len(k.Candidates(gm.Surface)) > 0 {
			out = append(out, gm.Surface)
		}
	}
	return out
}
