package disambig

import (
	"math"
	"math/rand"
	"sort"

	"aida/internal/relatedness"
)

// PriorOnly is the popularity-prior baseline (Sec. 3.1): each mention maps
// to its most popular candidate.
type PriorOnly struct{}

// Name implements Method.
func (PriorOnly) Name() string { return "prior" }

// Disambiguate implements Method.
func (PriorOnly) Disambiguate(p *Problem) *Output {
	out := &Output{Results: make([]Result, len(p.Mentions))}
	for i := range p.Mentions {
		m := &p.Mentions[i]
		scores := priorVector(m)
		if p.ContextModel != nil {
			p.ContextModel.Blend(p, i, scores)
		}
		best := argmax(scores)
		score := 0.0
		if best >= 0 {
			score = scores[best]
		}
		out.Results[i] = pickResult(i, m, best, score, scores)
	}
	return out
}

// contextCosine scores candidates by the cosine similarity between the
// document's bag of words and the entity's keyphrase-word bag — the
// token-level context similarity family used by Kulkarni et al. and
// Cucerzan (no partial phrase matching).
func contextCosine(p *Problem, c *Candidate) float64 {
	docVec := map[string]float64{}
	var docWords []string
	for _, w := range p.ContextWords {
		if docVec[w] == 0 {
			docWords = append(docWords, w)
		}
		docVec[w]++
	}
	sort.Strings(docWords) // deterministic summation order
	var dot, entNorm, docNorm float64
	seen := map[string]bool{}
	for _, kp := range c.Keyphrases {
		for _, w := range kp.Words {
			if seen[w] {
				continue
			}
			seen[w] = true
			wgt := p.wordIDF(w)
			entNorm += float64(wgt * wgt)
			if tf, ok := docVec[w]; ok {
				dot += float64(wgt * tf * p.wordIDF(w))
			}
		}
	}
	for _, w := range docWords {
		v := docVec[w] * p.wordIDF(w)
		docNorm += float64(v * v)
	}
	if entNorm == 0 || docNorm == 0 {
		return 0
	}
	return dot / (math.Sqrt(entNorm) * math.Sqrt(docNorm))
}

// Cucerzan re-implements the disambiguation of Cucerzan [Cuc07]
// (Sec. 2.2.2): mentions are resolved one by one against an expanded
// document context that includes the keyphrases of every candidate of every
// mention — approximating joint disambiguation without performing it.
type Cucerzan struct{}

// Name implements Method.
func (Cucerzan) Name() string { return "Cuc" }

// Disambiguate implements Method.
func (Cucerzan) Disambiguate(p *Problem) *Output {
	// Expanded context: document words plus all candidate keyphrase words
	// (the category/context expansion of the original method).
	expanded := append([]string(nil), p.ContextWords...)
	wordSeen := map[string]bool{}
	for i := range p.Mentions {
		for j := range p.Mentions[i].Candidates {
			for _, kp := range p.Mentions[i].Candidates[j].Keyphrases {
				for _, w := range kp.Words {
					if !wordSeen[w] {
						wordSeen[w] = true
						expanded = append(expanded, w)
					}
				}
			}
		}
	}
	q := &Problem{ContextWords: expanded, WordIDF: p.WordIDF, TotalEntities: p.TotalEntities}
	out := &Output{Results: make([]Result, len(p.Mentions))}
	for i := range p.Mentions {
		m := &p.Mentions[i]
		scores := make([]float64, len(m.Candidates))
		for j := range m.Candidates {
			scores[j] = contextCosine(q, &m.Candidates[j])
		}
		best := argmax(scores)
		score := 0.0
		if best >= 0 {
			score = scores[best]
		}
		out.Results[i] = pickResult(i, m, best, score, scores)
	}
	return out
}

// Kulkarni re-implements the collective-inference method of Kulkarni et al.
// [KSRC09] in its three configurations of Table 3.2: the learned context
// similarity alone (Kul s), combined with the prior (Kul sp), and with
// pairwise MW coherence solved by hill climbing (Kul CI) — the relaxation
// heuristic the original work falls back to.
type Kulkarni struct {
	UsePrior     bool
	UseCoherence bool
}

// The CI variant's hill-climbing budget and the seed of its move sequence.
const (
	kulkarniIters = 400
	kulkarniSeed  = 11
)

// Name implements Method.
func (k *Kulkarni) Name() string {
	switch {
	case k.UseCoherence:
		return "Kul CI"
	case k.UsePrior:
		return "Kul sp"
	default:
		return "Kul s"
	}
}

// localScores computes the per-candidate scores of the sp stage.
func (k *Kulkarni) localScores(p *Problem) [][]float64 {
	out := make([][]float64, len(p.Mentions))
	for i := range p.Mentions {
		m := &p.Mentions[i]
		scores := make([]float64, len(m.Candidates))
		for j := range m.Candidates {
			s := contextCosine(p, &m.Candidates[j])
			if k.UsePrior {
				s = float64(0.5*s) + float64(0.5*m.Candidates[j].Prior)
			}
			scores[j] = s
		}
		out[i] = scores
	}
	return out
}

// Disambiguate implements Method.
func (k *Kulkarni) Disambiguate(p *Problem) *Output {
	local := k.localScores(p)
	out := &Output{Results: make([]Result, len(p.Mentions))}
	if !k.UseCoherence {
		for i := range p.Mentions {
			m := &p.Mentions[i]
			best := argmax(local[i])
			score := 0.0
			if best >= 0 {
				score = local[i][best]
			}
			out.Results[i] = pickResult(i, m, best, score, local[i])
		}
		return out
	}

	scorer := newCohScorer(relatedness.KindMW, p, nil)
	defer scorer.release()
	assign := make([]int, len(p.Mentions))
	for i := range p.Mentions {
		assign[i] = argmax(local[i])
	}
	objective := func(a []int) float64 {
		total := 0.0
		for i, c := range a {
			if c < 0 {
				continue
			}
			total += local[i][c]
			for j := i + 1; j < len(a); j++ {
				if a[j] < 0 {
					continue
				}
				total += scorer.score(scorer.ids[i][c], scorer.ids[j][a[j]])
			}
		}
		return total
	}
	rng := rand.New(rand.NewSource(kulkarniSeed))
	cur := objective(assign)
	for it := 0; it < kulkarniIters; it++ {
		i := rng.Intn(len(p.Mentions))
		if len(p.Mentions[i].Candidates) < 2 {
			continue
		}
		old := assign[i]
		assign[i] = rng.Intn(len(p.Mentions[i].Candidates))
		if next := objective(assign); next > cur {
			cur = next
		} else {
			assign[i] = old
		}
	}
	out.Stats.Comparisons = scorer.comparisons
	for i := range p.Mentions {
		m := &p.Mentions[i]
		score := 0.0
		if assign[i] >= 0 {
			score = local[i][assign[i]]
		}
		out.Results[i] = pickResult(i, m, assign[i], score, local[i])
	}
	return out
}

// TagMe re-implements the light-weight linker of Ferragina & Scaiella
// [FS12]: each candidate is scored by the prior-weighted average
// relatedness vote of all other mentions' candidates; no context words are
// used.
type TagMe struct{}

// Name implements Method.
func (TagMe) Name() string { return "TagMe" }

// Disambiguate implements Method.
func (t TagMe) Disambiguate(p *Problem) *Output {
	scorer := newCohScorer(relatedness.KindMW, p, nil)
	defer scorer.release()
	out := &Output{Results: make([]Result, len(p.Mentions))}
	for i := range p.Mentions {
		m := &p.Mentions[i]
		scores := make([]float64, len(m.Candidates))
		for j := range m.Candidates {
			c := &m.Candidates[j]
			var vote float64
			var votes int
			for i2 := range p.Mentions {
				if i2 == i {
					continue
				}
				best := 0.0
				for j2 := range p.Mentions[i2].Candidates {
					v := scorer.score(scorer.ids[i][j], scorer.ids[i2][j2]) * p.Mentions[i2].Candidates[j2].Prior
					if v > best {
						best = v
					}
				}
				vote += best
				votes++
			}
			avg := 0.0
			if votes > 0 {
				avg = vote / float64(votes)
			}
			scores[j] = float64(0.5*c.Prior) + float64(0.5*avg)
		}
		best := argmax(scores)
		score := 0.0
		if best >= 0 {
			score = scores[best]
		}
		out.Results[i] = pickResult(i, m, best, score, scores)
	}
	out.Stats.Comparisons = scorer.comparisons
	return out
}

// Wikifier re-implements the Illinois Wikifier (Ratinov et al. [RRDA11])
// baseline used in Chapter 5: per-mention independent ranking by prior and
// context similarity, refined by relatedness to the other mentions'
// top-prior candidates ("all-candidates relatedness"), with a linker score
// suitable for thresholding out-of-KB mentions.
type Wikifier struct{}

// Name implements Method.
func (Wikifier) Name() string { return "IW" }

// Disambiguate implements Method.
func (Wikifier) Disambiguate(p *Problem) *Output {
	scorer := newCohScorer(relatedness.KindMW, p, nil)
	defer scorer.release()
	// Stage 1: local disambiguation by prior + context similarity.
	sims := simScores(p)
	tops := make([]int, 0, len(p.Mentions)) // candidate ids
	for i := range p.Mentions {
		m := &p.Mentions[i]
		if len(m.Candidates) == 0 {
			continue
		}
		local := make([]float64, len(m.Candidates))
		norm := normalizeSum(sims[i])
		for j := range m.Candidates {
			local[j] = float64(0.5*m.Candidates[j].Prior) + float64(0.5*norm[j])
		}
		tops = append(tops, scorer.ids[i][argmax(local)])
	}
	// Stage 2: re-rank with relatedness to the other mentions' top picks.
	out := &Output{Results: make([]Result, len(p.Mentions))}
	for i := range p.Mentions {
		m := &p.Mentions[i]
		scores := make([]float64, len(m.Candidates))
		norm := normalizeSum(sims[i])
		for j := range m.Candidates {
			c := &m.Candidates[j]
			var coh float64
			for _, t := range tops {
				coh += scorer.score(scorer.ids[i][j], t) // 0 for c itself
			}
			if len(tops) > 1 {
				coh /= float64(len(tops) - 1)
			}
			scores[j] = float64(0.4*c.Prior) + float64(0.3*norm[j]) + float64(0.3*coh)
		}
		best := argmax(scores)
		score := 0.0
		if best >= 0 {
			score = scores[best]
		}
		out.Results[i] = pickResult(i, m, best, score, scores)
	}
	out.Stats.Comparisons = scorer.comparisons
	return out
}

// Methods returns the full method suite of Table 3.2 plus the Chapter 5
// baselines, in presentation order.
func Methods() []Method {
	return []Method{
		NewAIDAVariant("sim-k", Config{}),
		NewAIDAVariant("prior sim-k", Config{UsePrior: true}),
		NewAIDAVariant("r-prior sim-k", Config{UsePrior: true, PriorTest: true}),
		NewAIDAVariant("r-prior sim-k coh", Config{UsePrior: true, PriorTest: true, UseCoherence: true, Measure: relatedness.KindMW}),
		NewAIDAVariant("r-prior sim-k r-coh", Config{UsePrior: true, PriorTest: true, UseCoherence: true, CoherenceTest: true, Measure: relatedness.KindMW}),
		PriorOnly{},
		Cucerzan{},
		&Kulkarni{},
		&Kulkarni{UsePrior: true},
		&Kulkarni{UsePrior: true, UseCoherence: true},
	}
}
