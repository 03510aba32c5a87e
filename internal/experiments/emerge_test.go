package experiments

import (
	"strings"
	"testing"

	"aida/internal/disambig"
	"aida/internal/kb"
)

// buildEEKB creates the Prism/Snowden scenario of Sec. 5.1.1: the KB knows
// a town called Snowden and a band called Prism, but not the whistleblower
// or the surveillance program.
func buildEEKB() *kb.KB {
	b := kb.NewBuilder()
	town := b.AddEntity("Snowden, WA", "geography", "location")
	band := b.AddEntity("Prism (band)", "music", "band")
	state := b.AddEntity("Washington (state)", "geography", "location")
	gov := b.AddEntity("US Government", "politics", "organization")
	b.AddName("Snowden", town, 10)
	b.AddName("Prism", band, 10)
	b.AddName("Washington", state, 6)
	b.AddName("Washington", gov, 4)
	b.AddLink(town, state)
	b.AddLink(state, town)
	b.AddKeyphrase(town, "Washington town")
	b.AddKeyphrase(town, "rural county")
	b.AddKeyphrase(band, "rock band")
	b.AddKeyphrase(band, "studio album")
	b.AddKeyphrase(state, "pacific northwest")
	b.AddKeyphrase(state, "Washington town")
	b.AddKeyphrase(gov, "federal agency")
	b.AddKeyphrase(gov, "intelligence officials")
	return b.Build()
}

func eeProblem(k *kb.KB) *disambig.Problem {
	text := "Washington's program Prism was revealed by the whistleblower Snowden after intelligence officials confirmed the secret surveillance program."
	return disambig.NewProblem(k, text, []string{"Washington", "Prism", "Snowden"}, 0)
}

// kbCandidates materializes a surface's full dictionary row, as
// Pipeline.Models does.
func kbCandidates(k kb.Store, surface string) []disambig.Candidate {
	return disambig.NewProblemFromWords(k, nil, []string{surface}, 0).Mentions[0].Candidates
}

func simMethod() disambig.Method {
	return disambig.NewAIDAVariant("sim", disambig.Config{})
}

func TestHarvesterFindsKeyphrases(t *testing.T) {
	var h Harvester
	docs := []string{
		"The whistleblower Snowden revealed a secret surveillance program. Snowden fled the country.",
		"Officials confirmed Snowden leaked the intelligence files.",
	}
	hv := h.HarvestDocs(docs, []string{"Snowden"})
	if hv.Occurrences["Snowden"] != 3 {
		t.Fatalf("want 3 occurrences, got %d", hv.Occurrences["Snowden"])
	}
	counts := hv.Counts["Snowden"]
	found := false
	for p := range counts {
		if strings.Contains(strings.ToLower(p), "surveillance") {
			found = true
		}
		if strings.EqualFold(p, "Snowden") {
			t.Error("the name itself must not be its own keyphrase")
		}
	}
	if !found {
		t.Fatalf("surveillance phrase not harvested: %v", counts)
	}
}

func TestHarvesterMultiTokenName(t *testing.T) {
	var h Harvester
	docs := []string{"Edward Snowden spoke about the surveillance program yesterday."}
	hv := h.HarvestDocs(docs, []string{"Edward Snowden"})
	if hv.Occurrences["Edward Snowden"] != 1 {
		t.Fatalf("multi-token name not found: %v", hv.Occurrences)
	}
}

func TestBuildEEModelDifference(t *testing.T) {
	k := buildEEKB()
	var h Harvester
	docs := []string{
		"The whistleblower Snowden revealed the secret surveillance program to the press.",
		"Snowden leaked intelligence files describing the surveillance program. The rural county of Snowden stayed quiet.",
	}
	// Twice over, so every phrase reaches minPhraseCount.
	hv := h.HarvestDocs(append(docs, docs...), []string{"Snowden"})
	cands := kbCandidates(k, "Snowden")
	ee := BuildEEModel("Snowden", hv, cands, k.NumEntities())
	if ee.Entity != kb.NoEntity || ee.Label != "Snowden_EE" {
		t.Fatalf("bad placeholder identity: %+v", ee)
	}
	if len(ee.Keyphrases) == 0 {
		t.Fatal("EE model has no keyphrases")
	}
	// The global-minus-KB difference must keep the fresh phrases and tend
	// to drop the KB candidate's own phrases.
	hasSurveillance := false
	for _, kp := range ee.Keyphrases {
		if strings.Contains(strings.ToLower(kp.Phrase), "surveillance") {
			hasSurveillance = true
		}
		if kp.MI <= 0 || kp.MI > 1 {
			t.Errorf("phrase %q has bad weight %v", kp.Phrase, kp.MI)
		}
	}
	if !hasSurveillance {
		t.Fatalf("surveillance evidence missing from EE model: %+v", ee.Keyphrases)
	}
}

func TestBuildEEModelSubtractsKBPhrases(t *testing.T) {
	k := buildEEKB()
	cands := kbCandidates(k, "Snowden")
	hv := &Harvest{
		Counts: map[string]map[string]int{
			"Snowden": {"rural county": 2, "surveillance program": 2},
		},
		Occurrences: map[string]int{"Snowden": 2},
		Docs:        1,
	}
	ee := BuildEEModel("Snowden", hv, cands, k.NumEntities())
	if len(ee.Keyphrases) != 1 || ee.Keyphrases[0].Phrase != "surveillance program" {
		t.Errorf("want only the fresh phrase, got %+v", ee.Keyphrases)
	}
}

func TestDiscoverPlaceholderWins(t *testing.T) {
	k := buildEEKB()
	var h Harvester
	chunk := []string{
		"The whistleblower Snowden revealed the secret surveillance program.",
		"Snowden leaked files about the surveillance program and fled.",
		"Prism is the secret surveillance program run by intelligence officials.",
		"The program Prism collects data, the whistleblower said.",
	}
	// Twice over, so every phrase reaches minPhraseCount.
	hv := h.HarvestDocs(append(chunk, chunk...), []string{"Snowden", "Prism"})
	models := map[string]disambig.Candidate{}
	for _, name := range []string{"Snowden", "Prism"} {
		cands := kbCandidates(k, name)
		models[name] = BuildEEModel(name, hv, cands, k.NumEntities())
	}
	disc := Discover(simMethod(), eeProblem(k), models)
	if !disc.Emerging[1] {
		t.Errorf("Prism should be discovered as emerging: %+v", disc.Output.Results[1])
	}
	if !disc.Emerging[2] {
		t.Errorf("Snowden should be discovered as emerging: %+v", disc.Output.Results[2])
	}
	if disc.Emerging[0] {
		t.Errorf("Washington is in the KB and should not be emerging")
	}
	for _, r := range disc.Output.Results {
		if r.Entity == kb.NoEntity && r.CandidateIndex >= 0 {
			t.Error("EE results must not leak extended candidate indices")
		}
	}
}

func TestDiscoverKeepsKBEntityOnKBEvidence(t *testing.T) {
	k := buildEEKB()
	// Context matching the town: the placeholder must lose.
	p := disambig.NewProblem(k, "The rural county town of Snowden in the pacific northwest held a fair.",
		[]string{"Snowden"}, 0)
	ee := disambig.Candidate{
		Entity: kb.NoEntity, Label: "Snowden_EE", EdgeScale: 1,
		Keyphrases: []kb.Keyphrase{{Phrase: "surveillance program", Words: []string{"surveillance", "program"}, MI: 1}},
	}
	disc := Discover(simMethod(), p, map[string]disambig.Candidate{"Snowden": ee})
	if disc.Emerging[0] {
		t.Fatalf("town context should map to the KB town, got %+v", disc.Output.Results[0])
	}
	if disc.Output.Results[0].Label != "Snowden, WA" {
		t.Fatalf("wrong entity: %q", disc.Output.Results[0].Label)
	}
}

func TestEnricher(t *testing.T) {
	k := buildEEKB()
	town, _ := k.EntityByName("Snowden, WA")
	e := NewEnricher()
	e.Add(town, map[string]int{"county fair": 3, "harvest festival": 1})
	if e.Size() != 1 {
		t.Fatalf("size = %d", e.Size())
	}
	p := disambig.NewProblem(k, "Snowden hosted the county fair.", []string{"Snowden"}, 0)
	before := len(p.Mentions[0].Candidates[0].Keyphrases)
	e.Enrich(p)
	after := len(p.Mentions[0].Candidates[0].Keyphrases)
	if after != before+2 {
		t.Fatalf("enrichment did not add phrases: %d → %d", before, after)
	}
	// Duplicate adds are ignored.
	e.Add(town, map[string]int{"county fair": 5})
	p2 := disambig.NewProblem(k, "Snowden hosted the county fair.", []string{"Snowden"}, 0)
	e.Enrich(p2)
	if len(p2.Mentions[0].Candidates[0].Keyphrases) != after {
		t.Fatal("duplicate phrases must not accumulate")
	}
}

func TestEnricherImprovesDisambiguation(t *testing.T) {
	k := buildEEKB()
	town, _ := k.EntityByName("Snowden, WA")
	// Without enrichment the fair context carries no evidence for the town.
	text := "Snowden hosted the county fair and the harvest festival."
	p := disambig.NewProblem(k, text, []string{"Snowden"}, 0)
	ee := disambig.Candidate{
		Entity: kb.NoEntity, Label: "Snowden_EE", EdgeScale: 1,
		Keyphrases: []kb.Keyphrase{{Phrase: "county fair", Words: []string{"county", "fair"}, MI: 0.4}},
	}
	p.Mentions[0].Candidates = append(p.Mentions[0].Candidates, ee)
	e := NewEnricher()
	e.Add(town, map[string]int{"county fair": 3, "harvest festival": 2})
	e.Enrich(p)
	out := simMethod().Disambiguate(p)
	if out.Results[0].Label != "Snowden, WA" {
		t.Fatalf("enriched town should beat the placeholder, got %q", out.Results[0].Label)
	}
}

func BenchmarkBuildEEModel(b *testing.B) {
	k := buildEEKB()
	var h Harvester
	hv := h.HarvestDocs([]string{
		"The whistleblower Snowden revealed the secret surveillance program to the press.",
		"Snowden leaked intelligence files describing the surveillance program.",
	}, []string{"Snowden"})
	cands := kbCandidates(k, "Snowden")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildEEModel("Snowden", hv, cands, k.NumEntities())
	}
}
