// Package disambig implements AIDA, the dissertation's named-entity
// disambiguation framework (Chapter 3): the popularity prior, the
// keyphrase-based mention–entity similarity sim-k, the entity–entity
// coherence graph, the prior and coherence robustness tests, and the
// baseline methods it is evaluated against (prior-only, Cucerzan, Kulkarni
// s/sp/CI, a TagMe-style linker and an Illinois-Wikifier-style linker).
//
// A disambiguation instance is a Problem: a document context plus mentions
// with materialized candidate lists. Candidates carry their own features
// (prior, keyphrases, link sets), so out-of-KB placeholder entities
// (Chapter 5) participate in exactly the same machinery as KB entities.
package disambig

import (
	"context"

	"aida/internal/kb"
	"aida/internal/relatedness"
	"aida/internal/tokenizer"
)

// Candidate is one disambiguation target for a mention, with the features
// the methods consume. For knowledge-base entities they are the KB entry's
// name, keyphrases, keyword weights and in-links; for emerging-entity
// placeholders Entity is kb.NoEntity and the keyphrase model is supplied by
// the caller.
type Candidate struct {
	Entity      kb.EntityID
	Label       string // canonical name, or "<name>_EE" for placeholders
	Prior       float64
	Keyphrases  []kb.Keyphrase
	KeywordNPMI map[string]float64
	InLinks     []kb.EntityID
	// EdgeScale scales this candidate's edge weights: the γ_EE balance of
	// Sec. 5.6 for placeholder candidates, which experiments.BuildEEModel sets
	// to 1. Zero (every KB entity) means 1.
	EdgeScale float64
}

func (c *Candidate) edgeScale() float64 {
	if c.EdgeScale <= 0 {
		return 1
	}
	return c.EdgeScale
}

// Mention is one name occurrence to disambiguate.
type Mention struct {
	Surface    string
	Candidates []Candidate
}

// Problem is a self-contained disambiguation instance.
type Problem struct {
	// ContextWords are the lower-cased, stopword-filtered tokens of the
	// whole input text (the mention context of Sec. 3.3.4).
	ContextWords []string
	Mentions     []Mention
	// WordIDF is the collection-wide keyword IDF used as the fallback
	// weight in cover scoring (Eq. 3.4) and as the KORE keyword weight.
	// A problem built from a store scores that store's untouched entities
	// from keyphrases the store compiled with its own IDF table, which is
	// what NewProblem sets here; only candidates with features of their
	// own are weighted through this function.
	WordIDF func(string) float64
	// TotalEntities is |E| of the underlying KB (for the MW measure).
	TotalEntities int
	// Scorer and CoherenceWorkers are ignored: coherence is scored per
	// problem, on the calling goroutine, from the candidates' own features.
	// The fields remain for callers that still set them.
	Scorer           *relatedness.Scorer
	CoherenceWorkers int
	// Context carries per-request cancellation into the method. Methods
	// with expensive phases (coherence-edge scoring) observe it and stop
	// promptly, returning an incomplete Output the caller must discard
	// after checking Context.Err(). Nil means never canceled.
	Context context.Context
	// ContextModel is the per-request interest model blended into
	// mention–entity scoring (the short-text context prior). Nil — the
	// default — changes nothing: output is byte-identical to a problem
	// without the field.
	ContextModel *ContextModel

	// vocab is the scoring state of the store the problem was built from
	// (nil for a hand-built problem): candidates that are that store's
	// untouched entities are scored from its compiled keyphrases.
	vocab *kb.Vocab
	words *wordIndex // ContextWords by word id, built on first use
}

// Ctx is the nil-safe accessor for Problem.Context.
func (p *Problem) Ctx() context.Context {
	if p.Context == nil {
		return context.Background()
	}
	return p.Context
}

// index returns the lazily built word-id index over the context words.
func (p *Problem) index() *wordIndex {
	if p.words == nil {
		p.words = newWordIndex(p.vocab, p.ContextWords)
	}
	return p.words
}

// ForText returns a mention-less problem over other context words against
// the same KB generation: what scoring one of p's candidates against a part
// of the document (a sentence) needs.
func (p *Problem) ForText(contextWords []string) *Problem {
	return &Problem{ContextWords: contextWords, WordIDF: p.WordIDF, TotalEntities: p.TotalEntities, vocab: p.vocab}
}

// wordIDF is the nil-safe accessor for Problem.WordIDF.
func (p *Problem) wordIDF(w string) float64 {
	if p.WordIDF == nil {
		return 1
	}
	if v := p.WordIDF(w); v > 0 {
		return v
	}
	return 0.1 // unknown words carry minimal evidence
}

// NewProblem builds a Problem from raw text and pre-recognized mention
// surfaces, materializing up to maxCandidates candidates per mention from
// the KB dictionary (sorted by prior). maxCandidates ≤ 0 means no limit.
// The store may be any kb.Store; candidate lists are byte-identical for
// the same repository content.
func NewProblem(k kb.Store, text string, surfaces []string, maxCandidates int) *Problem {
	return NewProblemFromWords(k, tokenizer.ContentWords(text), surfaces, maxCandidates)
}

// NewProblemFromWords is NewProblem on pre-tokenized context words.
//
// All mentions' candidate structs live in one arena allocation (each
// mention's slice is a full-capacity view into it, so appending to one can
// never clobber a neighbor): per-mention materialization was a measurable
// slice of the per-document allocation volume.
func NewProblemFromWords(k kb.Store, contextWords, surfaces []string, maxCandidates int) *Problem {
	p := &Problem{
		ContextWords:  contextWords,
		Mentions:      make([]Mention, 0, len(surfaces)),
		WordIDF:       k.WordIDF,
		TotalEntities: k.NumEntities(),
		vocab:         k.Vocabulary(),
	}
	var lists [][]kb.Candidate
	if bs, ok := k.(kb.BulkCandidateStore); ok {
		// Remote stores batch all dictionary rows (and the candidate
		// entities fillCandidates will need) in one scatter-gather per
		// shard; the lists are byte-identical to per-surface lookups.
		lists = bs.CandidatesBulk(surfaces)
	} else {
		lists = make([][]kb.Candidate, len(surfaces))
		for i, s := range surfaces {
			lists[i] = k.Candidates(s)
		}
	}
	total := 0
	for i := range lists {
		if maxCandidates > 0 && len(lists[i]) > maxCandidates {
			lists[i] = lists[i][:maxCandidates]
		}
		total += len(lists[i])
	}
	arena := make([]Candidate, total)
	off := 0
	for i, s := range surfaces {
		dst := arena[off : off+len(lists[i]) : off+len(lists[i])]
		off += len(lists[i])
		fillCandidates(k, lists[i], dst)
		p.Mentions = append(p.Mentions, Mention{Surface: s, Candidates: dst})
	}
	return p
}

// fillCandidates materializes candidate structs into dst (len(cands) long),
// attaching the owning entity's features.
func fillCandidates(k kb.Store, cands []kb.Candidate, dst []Candidate) {
	for i, c := range cands {
		ent := k.Entity(c.Entity)
		dst[i] = Candidate{
			Entity:      c.Entity,
			Label:       ent.Name,
			Prior:       c.Prior,
			Keyphrases:  ent.Keyphrases,
			KeywordNPMI: ent.KeywordNPMI,
			InLinks:     ent.InLinks,
		}
	}
}

// Clone returns a deep-enough copy of the problem for perturbation: the
// mention slice and candidate slices are fresh, while the immutable
// candidate features are shared.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		ContextWords:  p.ContextWords,
		Mentions:      make([]Mention, len(p.Mentions)),
		WordIDF:       p.WordIDF,
		TotalEntities: p.TotalEntities,
		Context:       p.Context,
		ContextModel:  p.ContextModel,
		vocab:         p.vocab,
		words:         p.words,
	}
	for i, m := range p.Mentions {
		q.Mentions[i] = Mention{
			Surface:    m.Surface,
			Candidates: append([]Candidate(nil), m.Candidates...),
		}
	}
	return q
}

// Result is the outcome for one mention.
type Result struct {
	MentionIndex   int
	Surface        string
	CandidateIndex int // -1 when no candidate was chosen (OOE or empty)
	Entity         kb.EntityID
	Label          string
	Score          float64
	// Scores holds the method's final per-candidate scores, aligned with
	// Mentions[MentionIndex].Candidates; used by the confidence assessors
	// of Chapter 5. May be nil for methods without a score vector.
	Scores []float64
}

// Stats reports work counters of one disambiguation run.
type Stats struct {
	// Comparisons is the number of pairwise entity relatedness
	// computations performed (the quantity of Fig. 4.5/Table 4.4).
	Comparisons int
	// GraphEntities is the number of candidate entities in the graph.
	GraphEntities int
	// RequestID labels the run with the caller's trace id (the HTTP
	// server's X-Request-ID, via aida.WithRequestID); empty outside traced
	// requests. Work counters and trace label travel together so a slow
	// disambiguation is attributable to its request end to end.
	RequestID string `json:",omitempty"`
}

// Output is a full disambiguation result.
type Output struct {
	Results []Result
	Stats   Stats
}

// Assignment returns the chosen entity per mention (kb.NoEntity when none).
func (o *Output) Assignment() []kb.EntityID {
	out := make([]kb.EntityID, len(o.Results))
	for i, r := range o.Results {
		out[i] = r.Entity
	}
	return out
}

// Method is a disambiguation algorithm.
type Method interface {
	Name() string
	Disambiguate(p *Problem) *Output
}

// emptyResult builds the abstain result for a mention.
func emptyResult(i int, m *Mention) Result {
	return Result{MentionIndex: i, Surface: m.Surface, CandidateIndex: -1, Entity: kb.NoEntity, Label: ""}
}

// pickResult builds the result for choosing candidate c of mention i.
func pickResult(i int, m *Mention, c int, score float64, scores []float64) Result {
	if c < 0 || c >= len(m.Candidates) {
		r := emptyResult(i, m)
		r.Scores = scores
		return r
	}
	return Result{
		MentionIndex:   i,
		Surface:        m.Surface,
		CandidateIndex: c,
		Entity:         m.Candidates[c].Entity,
		Label:          m.Candidates[c].Label,
		Score:          score,
		Scores:         scores,
	}
}

// argmax returns the index of the maximal score, -1 for empty input.
// Ties break toward the lower index (candidates are prior-sorted, so ties
// fall back to popularity).
func argmax(scores []float64) int {
	best := -1
	bestV := 0.0
	for i, v := range scores {
		if best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// normalizeSum scales a non-negative vector to sum 1 (in place copy).
func normalizeSum(v []float64) []float64 {
	out := make([]float64, len(v))
	var sum float64
	for _, x := range v {
		if x > 0 {
			sum += x
		}
	}
	if sum <= 0 {
		return out
	}
	for i, x := range v {
		if x > 0 {
			out[i] = x / sum
		}
	}
	return out
}
