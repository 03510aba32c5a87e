package aida

// End-to-end integration tests over the synthetic world: the full pipeline
// from corpus generation through recognition, disambiguation, emerging-
// entity discovery, and the two Chapter 6 applications.

import (
	"fmt"
	"testing"

	"aida/internal/analytics"
	"aida/internal/emerge"
	"aida/internal/eval"
	"aida/internal/search"
	"aida/internal/tokenizer"
	"aida/internal/wiki"
)

func integrationWorld(t *testing.T) *wiki.World {
	t.Helper()
	return wiki.Generate(wiki.Config{Seed: 77, Entities: 500})
}

func TestIntegrationAIDABeatsPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	world := integrationWorld(t)
	docs := world.GenerateCorpus(wiki.CoNLLSpec(12, 5))
	run := func(method string) float64 {
		m, err := MethodByName(method)
		if err != nil {
			t.Fatal(err)
		}
		sys := New(world.KB, WithMethod(m), WithMaxCandidates(10))
		var labels [][]eval.Label
		for i := range docs {
			anns := annotateDoc(t, sys, docs[i].Text, WithMentions(docs[i].Surfaces()...))
			row := make([]eval.Label, len(docs[i].Mentions))
			for j, gm := range docs[i].Mentions {
				row[j] = eval.Label{Gold: gm.Entity, Pred: anns[j].Entity}
			}
			labels = append(labels, row)
		}
		return eval.MicroAccuracy(labels, eval.InKBOnly)
	}
	aidaAcc, priorAcc := run("aida"), run("prior")
	t.Logf("in-KB micro accuracy on given mentions: aida %.17g, prior %.17g", aidaAcc, priorAcc)
	if aidaAcc <= priorAcc {
		t.Fatalf("AIDA (%.3f) should beat the prior baseline (%.3f)", aidaAcc, priorAcc)
	}
	if aidaAcc < 0.6 {
		t.Fatalf("AIDA accuracy implausibly low: %.3f", aidaAcc)
	}
}

func TestIntegrationRecognitionFindsGoldSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	world := integrationWorld(t)
	docs := world.GenerateCorpus(wiki.CoNLLSpec(5, 9))
	sys := New(world.KB)
	found, total := 0, 0
	for i := range docs {
		surfaces := map[string]bool{}
		for _, a := range annotateDoc(t, sys, docs[i].Text) {
			surfaces[a.Mention.Text] = true
		}
		for _, gm := range docs[i].Mentions {
			total++
			if surfaces[gm.Surface] {
				found++
			}
		}
	}
	if recall := float64(found) / float64(total); recall < 0.7 {
		t.Fatalf("NER surface recall too low: %.3f", recall)
	}
}

func TestIntegrationEEPipelineOverStream(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	world := integrationWorld(t)
	stream := world.NewsStream(wiki.DefaultNewsSpec(4, 8, 3))
	pl := &emerge.Pipeline{
		KB:            world.KB,
		MaxCandidates: 10,
		HarvestWindow: -1,
		Model:         emerge.ModelConfig{MaxKeyphrases: 25, MinCount: 2},
	}
	var chunk []emerge.ChunkDoc
	var today []wiki.Document
	for _, d := range stream {
		if d.Day < 4 {
			var surfaces []string
			for _, gm := range d.Mentions {
				if len(world.KB.Candidates(gm.Surface)) > 0 {
					surfaces = append(surfaces, gm.Surface)
				}
			}
			chunk = append(chunk, emerge.ChunkDoc{Text: d.Text, Surfaces: surfaces})
		} else {
			today = append(today, d)
		}
	}
	enricher := pl.BuildEnricher(chunk)
	var labels [][]eval.Label
	for i := range today {
		d := &today[i]
		var surfaces []string
		var gold []wiki.GoldMention
		for _, gm := range d.Mentions {
			if len(world.KB.Candidates(gm.Surface)) > 0 {
				surfaces = append(surfaces, gm.Surface)
				gold = append(gold, gm)
			}
		}
		if len(surfaces) == 0 {
			continue
		}
		disc := pl.Run(d.Text, surfaces, chunk, enricher)
		row := make([]eval.Label, len(gold))
		for j, gm := range gold {
			row[j] = eval.Label{Gold: gm.Entity, Pred: disc.Output.Results[j].Entity}
		}
		labels = append(labels, row)
	}
	q := eval.EEQuality(labels)
	acc := eval.MicroAccuracy(labels, eval.WithEE)
	if acc < 0.4 {
		t.Fatalf("stream accuracy implausibly low: %.3f", acc)
	}
	if q.Precision == 0 && q.Recall == 0 {
		t.Fatal("EE pipeline discovered nothing at all")
	}
}

// TestIntegrationSearchAndAnalytics asserts what the two Chapter 6
// applications are for: on ambiguous names, disambiguated entities beat
// surface strings. Each news document is indexed and counted with AIDA's
// output. Then, for every (surface, gold entity) pair whose surface has at
// least two dictionary candidates:
//   - search (Sec. 6.1): the entity query's mean average precision beats
//     the query for the surface's words by at least 0.15, a document being
//     relevant when it has a gold mention of the entity;
//   - analytics (Sec. 6.2): the entity's per-day frequency is at most half
//     as far (L1, averaged over queries) from the entity's gold per-day
//     count as the surface's raw per-day count is.
func TestIntegrationSearchAndAnalytics(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, w := range []struct {
		seed     int64
		entities int
		news     wiki.NewsSpec
	}{
		{77, 500, wiki.DefaultNewsSpec(3, 6, 11)},
		{31, 600, wiki.DefaultNewsSpec(5, 10, 7)},
		{42, 2000, wiki.DefaultNewsSpec(6, 15, 3)},
	} {
		t.Run(fmt.Sprintf("world%d-%d", w.seed, w.entities), func(t *testing.T) {
			world := wiki.Generate(wiki.Config{Seed: w.seed, Entities: w.entities})
			sys := New(world.KB, WithMaxCandidates(10))
			ix := search.NewIndex(world.KB)
			stats := analytics.New()

			type query struct {
				surface string
				entity  EntityID
			}
			var queries []query
			seen := map[query]bool{}
			relevant := map[EntityID]map[string]bool{} // entity → documents with a gold mention of it
			goldDays := map[EntityID]map[int]int{}     // entity → day → gold mentions
			surfaceDays := map[string]map[int]int{}    // surface → day → mentions
			for _, d := range world.NewsStream(w.news) {
				var anns []search.Annotation
				var ents []EntityID
				for _, a := range annotateDoc(t, sys, d.Text, WithMentions(d.Surfaces()...)) {
					if a.Entity == NoEntity {
						continue
					}
					anns = append(anns, search.Annotation{Entity: a.Entity, Surface: a.Mention.Text})
					ents = append(ents, a.Entity)
				}
				ix.AddDocument(d.ID, d.Text, anns)
				stats.AddDoc(d.Day, ents)

				for _, gm := range d.Mentions {
					bump(surfaceDays, gm.Surface, d.Day)
					if gm.Entity == NoEntity {
						continue
					}
					bump(goldDays, gm.Entity, d.Day)
					if relevant[gm.Entity] == nil {
						relevant[gm.Entity] = map[string]bool{}
					}
					relevant[gm.Entity][d.ID] = true
					q := query{gm.Surface, gm.Entity}
					if !seen[q] && len(world.KB.Candidates(gm.Surface)) >= 2 {
						seen[q] = true
						queries = append(queries, q)
					}
				}
			}
			if len(queries) == 0 {
				t.Fatal("no ambiguous (surface, entity) pairs in the stream")
			}

			from, to, _ := stats.Days()
			perDay := func(m map[int]int) []int {
				out := make([]int, to-from+1)
				for d := from; d <= to; d++ {
					out[d-from] = m[d]
				}
				return out
			}
			var mapString, mapEntity, l1String, l1Entity float64
			for _, q := range queries {
				rel := relevant[q.entity]
				mapString += averagePrecision(ix.Search(search.Query{Words: tokenizer.ContentWords(q.surface)}, 0), rel)
				mapEntity += averagePrecision(ix.Search(search.Query{Entities: []EntityID{q.entity}}, 0), rel)
				gold := perDay(goldDays[q.entity])
				l1String += l1(perDay(surfaceDays[q.surface]), gold)
				l1Entity += l1(stats.Frequency(q.entity, from, to), gold)
			}
			n := float64(len(queries))
			mapString, mapEntity, l1String, l1Entity = mapString/n, mapEntity/n, l1String/n, l1Entity/n
			t.Logf("%d queries: MAP string %.3f → entity %.3f; L1 per query string %.2f → entity %.2f",
				len(queries), mapString, mapEntity, l1String, l1Entity)
			if mapEntity < mapString+0.15 {
				t.Errorf("entity-query MAP %.3f does not beat string-query MAP %.3f by 0.15", mapEntity, mapString)
			}
			if l1Entity > l1String/2 {
				t.Errorf("entity frequency L1 %.2f is not at most half the surface count's %.2f", l1Entity, l1String)
			}
		})
	}
}

// bump increments m[k][day], allocating the inner map on first use.
func bump[K comparable](m map[K]map[int]int, k K, day int) {
	if m[k] == nil {
		m[k] = map[int]int{}
	}
	m[k][day]++
}

// averagePrecision is the mean of precision@k over the ranks k that hold a
// relevant document, divided by the number of relevant documents, so
// relevant documents the ranking misses count as zero.
func averagePrecision(hits []search.Hit, relevant map[string]bool) float64 {
	found, sum := 0, 0.0
	for i, h := range hits {
		if relevant[h.DocID] {
			found++
			sum += float64(found) / float64(i+1)
		}
	}
	return sum / float64(len(relevant))
}

// l1 is the L1 distance between two equally long count series.
func l1(a, b []int) float64 {
	d := 0
	for i := range a {
		d += max(a[i]-b[i], b[i]-a[i])
	}
	return float64(d)
}
