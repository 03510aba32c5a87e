package emerge

import (
	"context"
	"math"
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

// TestEntityPerturbationKeepsRequestState: every perturbation round of
// CONF runs the request's model — its cancellation context and context
// prior — on its mentions, so a cancelled request stops every
// round at once instead of running them all to the end.
func TestEntityPerturbationKeepsRequestState(t *testing.T) {
	p := eeProblem(buildEEKB())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Context = ctx
	p.ContextModel = &disambig.ContextModel{Words: []string{"intelligence", "officials"}}
	rec := &recordingMethod{Method: disambig.NewAIDA()}
	base := rec.Method.Disambiguate(p)
	cfg := PerturbConfig{Iterations: 15, Seed: 1}

	EntityPerturbation(rec, p, base, cfg)
	if len(rec.problems) == 0 {
		t.Fatal("no perturbation round ran")
	}
	linked := 0
	for r, sub := range rec.problems {
		if sub.Context != p.Context || sub.ContextModel != p.ContextModel {
			t.Fatalf("round %d: sub-problem has Context=%v ContextModel=%p, want the request's %v, %p",
				r, sub.Context, sub.ContextModel, p.Context, p.ContextModel)
		}
		if len(sub.Mentions) != len(p.Mentions) {
			t.Fatalf("round %d: %d mentions, want all %d", r, len(sub.Mentions), len(p.Mentions))
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
	EntityPerturbation(rec, p, base, cfg)
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
