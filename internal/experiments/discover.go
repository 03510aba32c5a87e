package experiments

import (
	"aida/internal/disambig"
	"aida/internal/kb"
)

// Discovery is the outcome of Discover.
type Discovery struct {
	Output *disambig.Output
	// Emerging[i] reports whether mention i was mapped to an emerging
	// entity (either its EE placeholder won, or it had no candidates).
	Emerging []bool
}

// Discover implements Algorithm 3: a general emerging-entity discovery
// wrapper around any keyphrase-based NED method m. It runs the algorithm in
// its placeholder form, the special case of confidence thresholds
// (t_l, t_u) = (0, 1): no mention is declared emerging or fixed by a
// first-stage confidence, and NED runs once on the problem extended with an
// explicit EE placeholder candidate per mention that has one. Table 5.3's
// threshold baselines apply their confidence thresholds to a plain NED run
// themselves. eeModels maps a mention surface to its placeholder candidate
// (from BuildEEModel); mentions without a model get no placeholder and can
// only become EE by having no candidates.
func Discover(m disambig.Method, p *disambig.Problem, eeModels map[string]disambig.Candidate) *Discovery {
	work := p.Clone()
	for i := range work.Mentions {
		if ee, ok := eeModels[work.Mentions[i].Surface]; ok {
			work.Mentions[i].Candidates = append(work.Mentions[i].Candidates, ee)
		}
	}
	out := m.Disambiguate(work)

	// Placeholder wins become EE.
	emerging := make([]bool, len(p.Mentions))
	final := &disambig.Output{Results: make([]disambig.Result, len(p.Mentions)), Stats: out.Stats}
	for i := range p.Mentions {
		r := out.Results[i]
		if r.CandidateIndex >= 0 && work.Mentions[i].Candidates[r.CandidateIndex].Entity == kb.NoEntity {
			emerging[i] = true
			r.Entity = kb.NoEntity
			// CandidateIndex refers to the extended candidate list, which
			// the caller does not see; mark as placeholder.
			r.CandidateIndex = -1
		} else if r.CandidateIndex < 0 {
			emerging[i] = true
		}
		final.Results[i] = r
	}
	return &Discovery{Output: final, Emerging: emerging}
}
