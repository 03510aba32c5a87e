// Package emerge implements NED-EE, the emerging-entity discovery of
// Chapter 5: disambiguation-confidence assessment by score normalization
// and input perturbation (Sec. 5.4), the explicit keyphrase model of
// out-of-KB entities built by model difference (Sec. 5.5), and the
// discovery algorithm that adds placeholder candidates to the NED problem
// (Sec. 5.6, Algorithm 3).
package emerge

import (
	"math/rand"

	"aida/internal/disambig"
)

// NormConfidence computes the normalized-score confidence of Sec. 5.4.1 for
// each mention: the chosen candidate's share of the total score mass.
// Mentions without a chosen candidate get confidence 0.
func NormConfidence(out *disambig.Output) []float64 {
	conf := make([]float64, len(out.Results))
	for i, r := range out.Results {
		if r.CandidateIndex < 0 || len(r.Scores) == 0 {
			continue
		}
		var sum float64
		for _, s := range r.Scores {
			if s > 0 {
				sum += s
			}
		}
		if sum <= 0 {
			// All-zero scores: the method had no evidence; split mass
			// uniformly.
			conf[i] = 1 / float64(len(r.Scores))
			continue
		}
		s := r.Scores[r.CandidateIndex]
		if s < 0 {
			s = 0
		}
		conf[i] = s / sum
	}
	return conf
}

// PerturbConfig tunes the perturbation-based assessors.
type PerturbConfig struct {
	// Iterations is the number of perturbed NED runs (default 20; the
	// dissertation uses up to 500 — quality saturates much earlier).
	Iterations int
	Seed       int64
}

// The perturbation fractions (Sec. 5.4): the probability of keeping each
// mention in a mention-perturbation round, and of force-mapping each
// ambiguous mention to an alternate entity in an entity-perturbation round.
const (
	keepProb  = 0.7
	forceFrac = 0.2
)

func (c PerturbConfig) withDefaults() PerturbConfig {
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	return c
}

// MentionPerturbation estimates confidence by dropping random mention
// subsets and re-running NED (Sec. 5.4.2): the confidence of a mention is
// the fraction of rounds in which its initial entity survived.
func MentionPerturbation(m disambig.Method, p *disambig.Problem, base *disambig.Output, cfg PerturbConfig) []float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5ee))
	n := len(p.Mentions)
	kept := make([]int, n)   // k_i: rounds the mention was present
	stable := make([]int, n) // c_i: rounds the initial entity was re-chosen
	for it := 0; it < cfg.Iterations; it++ {
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Float64() < keepProb {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		// A clone, so a round runs under the request's cancellation, worker
		// bound and context prior: survival must compare runs of one model.
		sub := p.Clone()
		for pos, i := range idx {
			sub.Mentions[pos] = sub.Mentions[i]
		}
		sub.Mentions = sub.Mentions[:len(idx)]
		out := m.Disambiguate(sub)
		for pos, i := range idx {
			kept[i]++
			if out.Results[pos].Entity == base.Results[i].Entity &&
				out.Results[pos].Label == base.Results[i].Label {
				stable[i]++
			}
		}
	}
	conf := make([]float64, n)
	for i := 0; i < n; i++ {
		if kept[i] > 0 {
			conf[i] = float64(stable[i]) / float64(kept[i])
		}
	}
	return conf
}

// EntityPerturbation estimates confidence by force-mapping random mentions
// to alternate candidates and checking whether the remaining mentions keep
// their initial entities (Sec. 5.4.3).
func EntityPerturbation(m disambig.Method, p *disambig.Problem, base *disambig.Output, cfg PerturbConfig) []float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 0xe47))
	n := len(p.Mentions)
	kept := make([]int, n)
	stable := make([]int, n)
	for it := 0; it < cfg.Iterations; it++ {
		forced := make([]bool, n)
		var forcedIdx []int
		for i := 0; i < n; i++ {
			if len(p.Mentions[i].Candidates) > 1 && rng.Float64() < forceFrac {
				forced[i] = true
				forcedIdx = append(forcedIdx, i)
			}
		}
		if len(forcedIdx) == n {
			continue
		}
		sub := p.Clone()
		// Force-map in ascending mention order: sampleAlternate consumes
		// rng draws, so the iteration order is part of the deterministic
		// seeded behavior (a map walk here would randomize CONF between
		// runs — caught by the golden-corpus conformance suite).
		for _, i := range forcedIdx {
			// Force-map to an alternate candidate drawn in proportion to
			// the method's scores (uniform when scores are unavailable).
			alt := sampleAlternate(rng, base.Results[i], len(p.Mentions[i].Candidates))
			sub.Mentions[i].Candidates = []disambig.Candidate{p.Mentions[i].Candidates[alt]}
		}
		out := m.Disambiguate(sub)
		for i := 0; i < n; i++ {
			if forced[i] {
				continue
			}
			kept[i]++
			if out.Results[i].Entity == base.Results[i].Entity &&
				out.Results[i].Label == base.Results[i].Label {
				stable[i]++
			}
		}
	}
	conf := make([]float64, n)
	for i := 0; i < n; i++ {
		if kept[i] > 0 {
			conf[i] = float64(stable[i]) / float64(kept[i])
		}
	}
	return conf
}

// sampleAlternate draws a candidate index different from the chosen one,
// with probability proportional to the method's scores.
func sampleAlternate(rng *rand.Rand, r disambig.Result, numCands int) int {
	if numCands <= 1 {
		return 0
	}
	var total float64
	for i, s := range r.Scores {
		if i != r.CandidateIndex && s > 0 {
			total += s
		}
	}
	if len(r.Scores) != numCands || total <= 0 {
		// Uniform fallback.
		alt := rng.Intn(numCands - 1)
		if r.CandidateIndex >= 0 && alt >= r.CandidateIndex {
			alt++
		}
		return alt
	}
	x := rng.Float64() * total
	for i, s := range r.Scores {
		if i == r.CandidateIndex || s <= 0 {
			continue
		}
		x -= s
		if x <= 0 {
			return i
		}
	}
	for i := numCands - 1; i >= 0; i-- {
		if i != r.CandidateIndex {
			return i
		}
	}
	return 0
}

// CONF is the dissertation's best assessor (Sec. 5.7.1): the equal-weight
// combination of the normalized weighted-degree score and entity
// perturbation.
func CONF(m disambig.Method, p *disambig.Problem, base *disambig.Output, cfg PerturbConfig) []float64 {
	norm := NormConfidence(base)
	pert := EntityPerturbation(m, p, base, cfg)
	out := make([]float64, len(norm))
	for i := range out {
		out[i] = float64(0.5*norm[i]) + float64(0.5*pert[i])
	}
	return out
}
