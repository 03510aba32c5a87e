package emerge

import (
	"context"
	"math"
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

func simMethod() disambig.Method {
	return disambig.NewAIDAVariant("sim", disambig.Config{})
}

func TestNormConfidence(t *testing.T) {
	out := &disambig.Output{Results: []disambig.Result{
		{CandidateIndex: 0, Scores: []float64{3, 1}},
		{CandidateIndex: -1},
		{CandidateIndex: 1, Scores: []float64{0, 0}},
	}}
	conf := NormConfidence(out)
	if math.Abs(conf[0]-0.75) > 1e-9 {
		t.Errorf("conf[0] = %v, want 0.75", conf[0])
	}
	if conf[1] != 0 {
		t.Errorf("unassigned mention must have 0 confidence")
	}
	if math.Abs(conf[2]-0.5) > 1e-9 {
		t.Errorf("zero-evidence mention should split mass, got %v", conf[2])
	}
}

func TestMentionPerturbationStableMention(t *testing.T) {
	k := buildEEKB()
	p := eeProblem(k)
	m := simMethod()
	base := m.Disambiguate(p)
	conf := MentionPerturbation(m, p, base, PerturbConfig{Iterations: 15, Seed: 1})
	for i, c := range conf {
		if c < 0 || c > 1 {
			t.Fatalf("confidence %d out of range: %v", i, c)
		}
	}
	// "Prism" has a single candidate: its choice never changes under
	// mention dropping.
	if conf[1] < 0.99 {
		t.Errorf("single-candidate mention should be fully stable, got %v", conf[1])
	}
}

// recordingMethod passes every problem through to the wrapped method and
// keeps what went in and what came out.
type recordingMethod struct {
	disambig.Method
	problems []*disambig.Problem
	outputs  []*disambig.Output
}

func (r *recordingMethod) Disambiguate(p *disambig.Problem) *disambig.Output {
	out := r.Method.Disambiguate(p)
	r.problems = append(r.problems, p)
	r.outputs = append(r.outputs, out)
	return out
}

// TestMentionPerturbationKeepsRequestState: every perturbation round runs
// the request's model — its cancellation context, context prior and worker
// bound — on a subset of its mentions, so a cancelled request stops every
// round at once instead of running them all to the end.
func TestMentionPerturbationKeepsRequestState(t *testing.T) {
	p := eeProblem(buildEEKB())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Context = ctx
	p.ContextModel = &disambig.ContextModel{Words: []string{"intelligence", "officials"}}
	p.CoherenceWorkers = 1
	rec := &recordingMethod{Method: disambig.NewAIDA()}
	base := rec.Method.Disambiguate(p)
	cfg := PerturbConfig{Iterations: 15, Seed: 1}

	MentionPerturbation(rec, p, base, cfg)
	if len(rec.problems) == 0 {
		t.Fatal("no perturbation round ran")
	}
	linked := 0
	for r, sub := range rec.problems {
		if sub.Context != p.Context || sub.ContextModel != p.ContextModel || sub.CoherenceWorkers != p.CoherenceWorkers {
			t.Fatalf("round %d: sub-problem has Context=%v ContextModel=%p CoherenceWorkers=%d, want the request's %v, %p, %d",
				r, sub.Context, sub.ContextModel, sub.CoherenceWorkers, p.Context, p.ContextModel, p.CoherenceWorkers)
		}
		if len(sub.Mentions) == 0 || len(sub.Mentions) > len(p.Mentions) {
			t.Fatalf("round %d: %d mentions out of %d", r, len(sub.Mentions), len(p.Mentions))
		}
		for _, res := range rec.outputs[r].Results {
			if res.CandidateIndex >= 0 {
				linked++
			}
		}
	}
	if linked == 0 {
		t.Fatal("no round linked a mention before the cancellation; the contrast below is vacuous")
	}

	cancel()
	rec.problems, rec.outputs = nil, nil
	MentionPerturbation(rec, p, base, cfg)
	if len(rec.outputs) == 0 {
		t.Fatal("no perturbation round ran")
	}
	for r, out := range rec.outputs {
		for _, res := range out.Results {
			if res.CandidateIndex != -1 || res.Entity != kb.NoEntity {
				t.Fatalf("round %d ran to the end under a cancelled context: %+v", r, res)
			}
		}
	}
}

func TestEntityPerturbationRange(t *testing.T) {
	k := buildEEKB()
	p := eeProblem(k)
	m := simMethod()
	base := m.Disambiguate(p)
	conf := EntityPerturbation(m, p, base, PerturbConfig{Iterations: 15, Seed: 2})
	for i, c := range conf {
		if c < 0 || c > 1 {
			t.Fatalf("confidence %d out of range: %v", i, c)
		}
	}
}

func TestCONFCombination(t *testing.T) {
	k := buildEEKB()
	p := eeProblem(k)
	m := simMethod()
	base := m.Disambiguate(p)
	conf := CONF(m, p, base, PerturbConfig{Iterations: 10, Seed: 3})
	norm := NormConfidence(base)
	pert := EntityPerturbation(m, p, base, PerturbConfig{Iterations: 10, Seed: 3})
	for i := range conf {
		want := float64(0.5*norm[i]) + float64(0.5*pert[i])
		if math.Abs(conf[i]-want) > 1e-9 {
			t.Fatalf("CONF[%d] = %v, want %v", i, conf[i], want)
		}
	}
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

func TestHarvestMerge(t *testing.T) {
	var h Harvester
	a := h.HarvestDocs([]string{"Snowden revealed the surveillance program."}, []string{"Snowden"})
	b := h.HarvestDocs([]string{"Snowden fled after the surveillance program leak."}, []string{"Snowden"})
	docs := a.Docs + b.Docs
	a.Merge(b)
	if a.Docs != docs {
		t.Errorf("doc count not merged")
	}
	if a.Occurrences["Snowden"] != 2 {
		t.Errorf("occurrences not merged: %d", a.Occurrences["Snowden"])
	}
}

func TestBuildEEModelDifference(t *testing.T) {
	k := buildEEKB()
	var h Harvester
	docs := []string{
		"The whistleblower Snowden revealed the secret surveillance program to the press.",
		"Snowden leaked intelligence files describing the surveillance program. The rural county of Snowden stayed quiet.",
	}
	hv := h.HarvestDocs(docs, []string{"Snowden"})
	cands := disambig.MaterializeCandidates(k, "Snowden", 0)
	ee := BuildEEModel("Snowden", hv, cands, ModelConfig{KBSize: k.NumEntities()})
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
	cands := disambig.MaterializeCandidates(k, "Snowden", 0)
	hv := &Harvest{
		Counts: map[string]map[string]int{
			"Snowden": {"rural county": 1, "surveillance program": 1},
		},
		Occurrences: map[string]int{"Snowden": 2},
		Docs:        1,
	}
	ee := BuildEEModel("Snowden", hv, cands, ModelConfig{KBSize: k.NumEntities()})
	for _, kp := range ee.Keyphrases {
		if strings.EqualFold(kp.Phrase, "rural county") {
			t.Error("phrase present in the in-KB model must be subtracted at equal counts")
		}
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
	hv := h.HarvestDocs(chunk, []string{"Snowden", "Prism"})
	models := map[string]disambig.Candidate{}
	for _, name := range []string{"Snowden", "Prism"} {
		cands := disambig.MaterializeCandidates(k, name, 0)
		models[name] = BuildEEModel(name, hv, cands, ModelConfig{KBSize: k.NumEntities()})
	}
	d := &Discoverer{Method: simMethod()}
	p := eeProblem(k)
	disc := d.Discover(p, models)
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
	d := &Discoverer{Method: simMethod()}
	disc := d.Discover(p, map[string]disambig.Candidate{"Snowden": ee})
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
	cands := disambig.MaterializeCandidates(k, "Snowden", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildEEModel("Snowden", hv, cands, ModelConfig{KBSize: k.NumEntities()})
	}
}

func BenchmarkEntityPerturbation(b *testing.B) {
	k := buildEEKB()
	p := eeProblem(k)
	m := simMethod()
	base := m.Disambiguate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EntityPerturbation(m, p, base, PerturbConfig{Iterations: 5, Seed: int64(i)})
	}
}
