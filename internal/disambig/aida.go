package disambig

import (
	"fmt"
	"slices"

	"aida/internal/graph"
	"aida/internal/kb"
	"aida/internal/relatedness"
)

// The paper's fixed parameters (Sec. 3.6.1): the prior and coherence
// robustness-test thresholds ρ and λ, the prior's share of a mention–entity
// weight, and γ, which balances entity–entity edges (·γ) against
// mention–entity edges (·(1−γ)). They are typed float64 so that constant
// expressions such as 1−priorWeight round like float64 arithmetic: the
// untyped 1−0.566 is exact and rounds to a different float64.
const (
	rho         float64 = 0.9
	lambda      float64 = 0.9
	priorWeight float64 = 0.566
	gamma       float64 = 0.40
)

// Config selects a variant of the AIDA framework. The numeric parameters
// are the paper's and fixed (see rho, lambda, priorWeight and gamma).
type Config struct {
	// UsePrior enables the popularity prior in mention–entity weights.
	UsePrior bool
	// PriorTest applies the prior robustness test (Sec. 3.5.1): the prior
	// is only combined with similarity when the best candidate's prior is
	// at least ρ; otherwise similarity alone is used.
	PriorTest bool

	// UseCoherence enables joint inference over the coherence graph.
	UseCoherence bool
	// CoherenceTest applies the coherence robustness test (Sec. 3.5.2):
	// mentions whose prior and similarity distributions agree (L1 < λ)
	// are fixed to their local best before running the graph algorithm.
	CoherenceTest bool

	// Measure selects the coherence relatedness measure (default MW).
	Measure relatedness.Kind
}

// AIDA is the dissertation's disambiguation method. Depending on the
// configuration it covers the sim-k, prior·sim-k, r-prior·sim-k, +coh and
// +r-coh variants of Table 3.2.
type AIDA struct {
	Config Config
	name   string
}

// NewAIDA returns the full method with robustness tests and MW coherence —
// the "r-prior sim-k r-coh" configuration that wins Table 3.2.
func NewAIDA() *AIDA {
	return &AIDA{Config: Config{
		UsePrior: true, PriorTest: true,
		UseCoherence: true, CoherenceTest: true,
		Measure: relatedness.KindMW,
	}}
}

// NewAIDAVariant builds a named configuration.
func NewAIDAVariant(name string, cfg Config) *AIDA {
	return &AIDA{Config: cfg, name: name}
}

// Name implements Method.
func (a *AIDA) Name() string {
	if a.name != "" {
		return a.name
	}
	n := "sim-k"
	if a.Config.UsePrior {
		if a.Config.PriorTest {
			n = "r-prior " + n
		} else {
			n = "prior " + n
		}
	}
	if a.Config.UseCoherence {
		if a.Config.CoherenceTest {
			n += " r-coh"
		} else {
			n += " coh"
		}
		n += fmt.Sprintf(" (%s)", a.Config.Measure)
	}
	return n
}

// localWeights computes the mention–entity edge weights with the prior
// robustness test applied: w = priorWeight·prior + (1−priorWeight)·sim when
// the mention's best prior passes ρ (or the test is disabled), else w = sim.
// The returned sims are per-mention sum-normalized similarity distributions.
func (a *AIDA) localWeights(p *Problem) (weights, sims [][]float64) {
	raw := simScores(p)
	weights = make([][]float64, len(p.Mentions))
	sims = make([][]float64, len(p.Mentions))
	for i := range p.Mentions {
		m := &p.Mentions[i]
		sim := normalizeSum(raw[i])
		sims[i] = sim
		w := make([]float64, len(m.Candidates))
		usePrior := a.Config.UsePrior
		if usePrior && a.Config.PriorTest {
			maxPrior := 0.0
			for _, c := range m.Candidates {
				if c.Prior > maxPrior {
					maxPrior = c.Prior
				}
			}
			usePrior = maxPrior >= rho
		}
		for j := range m.Candidates {
			// Placeholder (out-of-KB) candidates have no meaningful
			// prior; their weight is pure similarity evidence, balanced
			// only by the γ_EE edge scale (Sec. 5.6).
			if usePrior && m.Candidates[j].Entity != kb.NoEntity {
				w[j] = float64(priorWeight*m.Candidates[j].Prior) + float64((1-priorWeight)*sim[j])
			} else {
				w[j] = sim[j]
			}
			w[j] *= m.Candidates[j].edgeScale()
		}
		// Short-text context prior: blend the request's interest model
		// into the mention–entity weights. Nil (the default) leaves the
		// weights — and hence every downstream byte — untouched.
		if p.ContextModel != nil {
			p.ContextModel.Blend(p, i, w)
		}
		weights[i] = w
	}
	return weights, sims
}

// Disambiguate implements Method.
func (a *AIDA) Disambiguate(p *Problem) *Output {
	weights, sims := a.localWeights(p)
	out := &Output{Results: make([]Result, len(p.Mentions))}

	if !a.Config.UseCoherence {
		for i := range p.Mentions {
			m := &p.Mentions[i]
			best := argmax(weights[i])
			score := 0.0
			if best >= 0 {
				score = weights[i][best]
			}
			out.Results[i] = pickResult(i, m, best, score, weights[i])
		}
		return out
	}

	// Coherence robustness test: fix mentions whose prior and similarity
	// distributions agree.
	fixed := make([]int, len(p.Mentions)) // candidate index or -1
	for i := range fixed {
		fixed[i] = -1
	}
	if a.Config.CoherenceTest {
		for i := range p.Mentions {
			m := &p.Mentions[i]
			if len(m.Candidates) <= 1 {
				continue
			}
			if l1Distance(priorVector(m), sims[i]) < lambda {
				fixed[i] = argmax(weights[i])
			}
		}
	}

	// abstainFrom fills the not-yet-decided tail of the results with
	// well-formed abstain entries (CandidateIndex -1, NoEntity), so that a
	// cancellation-truncated output never carries zero values a reader
	// could mistake for "candidate 0 chosen".
	abstainFrom := func(start int) {
		for i := start; i < len(p.Mentions); i++ {
			out.Results[i] = emptyResult(i, &p.Mentions[i])
		}
	}

	scorer := newCohScorer(a.Config.Measure, p, fixed)
	defer scorer.release()
	g := a.buildGraph(p, weights, fixed, scorer)
	defer g.Release()
	if p.Ctx().Err() != nil {
		// Canceled while scoring coherence edges: stop promptly. The
		// output is incomplete and the caller must discard it after
		// checking the context's error.
		abstainFrom(0)
		out.Stats.Comparisons = scorer.comparisons
		return out
	}
	res := graph.Solve(g, graph.Options{})

	out.Stats.Comparisons = scorer.comparisons
	out.Stats.GraphEntities = g.Entities()

	for i := range p.Mentions {
		if p.Ctx().Err() != nil {
			abstainFrom(i)
			return out
		}
		m := &p.Mentions[i]
		// The assignment names a graph node, which is a candidate id (-1,
		// for a mention without candidates, matches none).
		chosen := slices.Index(scorer.ids[i], res.Assignment[i])
		// Per-candidate final scores: the weighted degree the candidate
		// would have in the solution (Sec. 5.4.1 "weighted-degree" score).
		scores := make([]float64, len(m.Candidates))
		for j := range m.Candidates {
			s := (1 - gamma) * weights[i][j]
			for i2 := range p.Mentions {
				if i2 == i || res.Assignment[i2] < 0 {
					continue
				}
				s += float64(gamma * scorer.score(scorer.ids[i][j], res.Assignment[i2]))
			}
			scores[j] = s
		}
		score := 0.0
		if chosen >= 0 {
			score = scores[chosen]
		}
		out.Results[i] = pickResult(i, m, chosen, score, scores)
	}
	return out
}

// buildGraph constructs the weighted mention–entity graph (Sec. 3.4.1) over
// the scorer's ids below graphN: mention–entity weights scaled by (1−γ),
// entity–entity coherence weights rescaled so their average matches the
// mention-edge average and then scaled by γ. The scorer's triangle keeps
// the raw coherence values, the graph's the scaled ones.
func (a *AIDA) buildGraph(p *Problem, weights [][]float64, fixed []int, scorer *cohScorer) *graph.Graph {
	// nodes returns mention i's graph nodes and the candidate index of the
	// first: all of its candidates, or only the one the coherence test
	// fixed.
	nodes := func(i int) ([]int, int) {
		if f := fixed[i]; f >= 0 {
			return scorer.ids[i][f : f+1], f
		}
		return scorer.ids[i], 0
	}
	g := graph.New(len(p.Mentions), scorer.graphN)
	var meSum float64
	var meCount int
	for i := range p.Mentions {
		ids, first := nodes(i)
		for k, id := range ids {
			w := weights[i][first+k]
			meSum += w
			meCount++
			g.AddMentionEdge(i, id, (1-gamma)*w)
		}
		// Coherence edges between candidates of different mentions only
		// (candidates sharing a single mention are mutually exclusive).
		for j := i + 1; j < len(p.Mentions); j++ {
			others, _ := nodes(j)
			for _, id := range ids {
				for _, other := range others {
					if id != other {
						scorer.need(id, other)
					}
				}
			}
		}
	}
	meAvg := 0.0
	if meCount > 0 {
		meAvg = meSum / float64(meCount)
	}

	if err := scorer.scoreAll(p.Ctx()); err != nil {
		// Canceled: return the graph without entity edges. The caller
		// (Disambiguate) bails out before solving.
		return g
	}
	var eeSum float64
	var eeCount int
	scorer.eachEdge(func(_, _ int, w float64) {
		eeSum += w
		eeCount++
	})
	// Rescale coherence so its average matches the mention-edge average,
	// then apply the γ balance.
	scale := 1.0
	if eeCount > 0 && eeSum > 0 && meAvg > 0 {
		scale = meAvg / (eeSum / float64(eeCount))
	}
	scorer.eachEdge(func(lo, hi int, w float64) {
		g.AddEntityEdge(lo, hi, gamma*scale*w)
	})
	return g
}
