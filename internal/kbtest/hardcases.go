package kbtest

import (
	"context"
	"fmt"

	"aida"
	"aida/internal/kb"
	"aida/internal/ner"
	"aida/internal/tokenizer"
)

// Hard-ambiguity corpus generators (the Namesakes regime): documents
// whose one mention surface names a whole family of same-surface entities
// and whose gold sense is deliberately NOT the popularity-prior favorite,
// in texts too short for coherence to help. The prior-driven baseline is
// structurally wrong on them; the request context prior (each doc carries
// the gold entity's own discriminating keyphrases) and a per-domain
// dictionary layer (re-weighting each surface toward its gold sense) are
// the two mechanisms under measurement. Everything here is a pure,
// deterministic function of the store — Names() is sorted — so the
// corpora are stable across runs and shard layouts. RunHardWorkload
// measures a corpus under the baseline and the two mechanisms.

// HardDoc is one document of a hard-ambiguity workload: the text, the
// mention surfaces expected to be recognized (in text order) with their
// gold entities, and the request context that discriminates the gold
// senses (interest keyphrases unique to the gold entities, plus the gold
// ids themselves as an interest set).
type HardDoc struct {
	Name string
	Text string
	// Surfaces are the expected recognized mention surfaces, in text
	// order, aligned with Gold. A run whose recognition disagrees counts
	// every mention of the document as wrong — recognition drift must
	// show up as lost accuracy, not as silently skipped documents.
	Surfaces []string
	Gold     []kb.EntityID
	// Context are the interest keyphrases of the context-prior run
	// (aida.WithContext); ContextEntities the interest entity set
	// (aida.WithContextEntities).
	Context         []string
	ContextEntities []kb.EntityID
}

// hardFiller is the lowercase padding around the mention. Lowercase
// tokens can never become mentions (recognition only fires on
// capitalized/uppercase tokens), and eligibility rejects any surface
// whose candidate family carries one of these words in a keyphrase, so
// the filler adds exactly zero evidence for any candidate.
var hardFiller = []string{
	"meanwhile", "reportedly", "observers", "remarked", "yesterday",
	"proceedings", "continued", "elsewhere", "quietly", "afterwards",
}

// hardCase is one eligible same-surface family: the dictionary key, its
// candidate family, the designated gold sense and the gold's
// discriminating keyphrases.
type hardCase struct {
	surface string
	gold    kb.EntityID
	context []string
}

// ShortTextCorpus builds the short-text workload over a store: one
// mention per document, minimal lowercase padding, gold = the family's
// second sense (beaten by the head sense on prior alone). max ≤ 0 means
// no limit.
func ShortTextCorpus(store kb.Store, max int) []HardDoc {
	cases := hardCases(store, max, func(cands []kb.Candidate) int { return 1 })
	docs := make([]HardDoc, 0, len(cases))
	for i, c := range cases {
		text := fmt.Sprintf("%s %s %s.", c.surface, hardFiller[i%len(hardFiller)], hardFiller[(i+3)%len(hardFiller)])
		docs = append(docs, hardDoc(store, fmt.Sprintf("short-%03d", i), text, c))
	}
	return docs
}

// HardAmbiguityCorpus builds the Namesakes-style workload: same-surface
// entity families where gold = the least popular family member — the
// hardest case for a prior-driven system — padded with two filler
// sentences. max ≤ 0 means no limit.
func HardAmbiguityCorpus(store kb.Store, max int) []HardDoc {
	cases := hardCases(store, max, func(cands []kb.Candidate) int { return len(cands) - 1 })
	docs := make([]HardDoc, 0, len(cases))
	for i, c := range cases {
		// All-lowercase padding on purpose: a capitalized filler word
		// could be shape-recognized as a spurious mention.
		text := fmt.Sprintf("%s %s %s, %s %s %s.",
			c.surface, hardFiller[i%len(hardFiller)], hardFiller[(i+1)%len(hardFiller)],
			hardFiller[(i+5)%len(hardFiller)], hardFiller[(i+7)%len(hardFiller)], hardFiller[(i+2)%len(hardFiller)])
		docs = append(docs, hardDoc(store, fmt.Sprintf("hard-%03d", i), text, c))
	}
	return docs
}

// hardDoc assembles the workload doc for one case, verifying recognition of
// the final text reproduces exactly the one expected mention.
func hardDoc(store kb.Store, name, text string, c hardCase) HardDoc {
	return HardDoc{
		Name:            name,
		Text:            text,
		Surfaces:        []string{c.surface},
		Gold:            []kb.EntityID{c.gold},
		Context:         c.context,
		ContextEntities: []kb.EntityID{c.gold},
	}
}

// hardCases scans the store's dictionary (sorted keys → deterministic
// output) for eligible same-surface families and designates the gold
// sense with pick (an index into the prior-sorted candidate list).
func hardCases(store kb.Store, max int, pick func([]kb.Candidate) int) []hardCase {
	rec := &ner.Recognizer{Lexicon: store}
	var out []hardCase
	for _, key := range store.Names() {
		cands := store.Candidates(key)
		// A real family, fully within the conformance candidate cap so
		// the gold sense is always materialized.
		if len(cands) < 3 || len(cands) > MaxCandidates {
			continue
		}
		gi := pick(cands)
		if gi <= 0 || gi >= len(cands) {
			continue
		}
		// The head sense must dominate the gold on prior, so a
		// prior-driven baseline is confidently wrong.
		if cands[0].Prior < 2*cands[gi].Prior {
			continue
		}
		gold := cands[gi].Entity
		ctx := discriminatingKeyphrases(store, gold, cands)
		if len(ctx) < 2 {
			continue
		}
		if !recognizableAlone(rec, key) {
			continue
		}
		if familyUsesFiller(store, cands) {
			continue
		}
		out = append(out, hardCase{surface: key, gold: gold, context: ctx})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// discriminatingKeyphrases returns the gold entity's keyphrases that
// share no content word with ANY rival candidate's keyphrases — context
// evidence that can only support the gold sense. The synthetic world
// guarantees at least two entity-unique jargon phrases per entity, so
// eligible families always have some.
func discriminatingKeyphrases(store kb.Store, gold kb.EntityID, cands []kb.Candidate) []string {
	rivalWords := make(map[string]bool)
	for _, c := range cands {
		if c.Entity == gold {
			continue
		}
		for _, kp := range store.Entity(c.Entity).Keyphrases {
			for _, w := range kp.Words {
				rivalWords[w] = true
			}
		}
	}
	var out []string
	seen := make(map[string]bool)
	for _, kp := range store.Entity(gold).Keyphrases {
		if len(kp.Words) == 0 || seen[kp.Phrase] {
			continue
		}
		disjoint := true
		for _, w := range kp.Words {
			if rivalWords[w] {
				disjoint = false
				break
			}
		}
		if disjoint {
			seen[kp.Phrase] = true
			out = append(out, kp.Phrase)
		}
	}
	return out
}

// recognizableAlone reports whether the surface, placed in running text,
// is recognized back as exactly one mention with that surface (filters
// out keys with parenthesized disambiguators, lowercase short aliases and
// anything else the recognizer's shape rules reject).
func recognizableAlone(rec *ner.Recognizer, surface string) bool {
	text := surface + " " + hardFiller[0] + "."
	ms := rec.RecognizeTokens(text, tokenizer.Tokenize(text))
	return len(ms) == 1 && ms[0].Text == surface
}

// familyUsesFiller reports whether any candidate of the family carries a
// filler word in its keyphrase model, which would let the padding leak
// evidence toward a candidate.
func familyUsesFiller(store kb.Store, cands []kb.Candidate) bool {
	for _, c := range cands {
		for _, kp := range store.Entity(c.Entity).Keyphrases {
			for _, w := range kp.Words {
				for _, f := range hardFiller {
					if w == f {
						return true
					}
				}
			}
		}
	}
	return false
}

// WorkloadRun is the measured outcome of one variant over a workload.
type WorkloadRun struct {
	Name     string
	Correct  int
	Total    int
	Accuracy float64
}

// HardWorkloadReport is the full result of RunHardWorkload: the same
// corpus measured under the baseline, context-prior and domain-layer
// variants.
type HardWorkloadReport struct {
	Corpus       string
	Docs         int
	Mentions     int
	Baseline     WorkloadRun
	ContextPrior WorkloadRun
	DomainLayer  WorkloadRun
}

// RunHardWorkload measures a hard-ambiguity corpus under the standard
// variant triple of one System: the plain pipeline (baseline), the
// pipeline with each document's request context blended in
// (aida.WithContext + aida.WithContextEntities), and the pipeline routed
// through the named registered domain layer (aida.WithDomain; skipped when
// domain is empty). The System's method and candidate cap apply to all
// three runs, so the deltas isolate the request-context machinery.
func RunHardWorkload(ctx context.Context, sys *aida.System, corpus string, docs []HardDoc, domain string) (HardWorkloadReport, error) {
	rep := HardWorkloadReport{Corpus: corpus, Docs: len(docs)}
	for _, d := range docs {
		rep.Mentions += len(d.Gold)
	}
	var err error
	rep.Baseline, err = runVariant(ctx, sys, "baseline", docs, func(HardDoc) []aida.AnnotateOption { return nil })
	if err != nil {
		return rep, err
	}
	rep.ContextPrior, err = runVariant(ctx, sys, "context-prior", docs, func(d HardDoc) []aida.AnnotateOption {
		return []aida.AnnotateOption{
			aida.WithContext(d.Context...),
			aida.WithContextEntities(d.ContextEntities...),
		}
	})
	if err != nil {
		return rep, err
	}
	if domain != "" {
		rep.DomainLayer, err = runVariant(ctx, sys, "domain-layer", docs, func(HardDoc) []aida.AnnotateOption {
			return []aida.AnnotateOption{aida.WithDomain(domain)}
		})
	}
	return rep, err
}

// runVariant annotates every document with the variant's options and
// scores the mentions against gold. Misaligned recognition (wrong mention
// count or surfaces) scores the whole document as wrong.
func runVariant(ctx context.Context, sys *aida.System, name string, docs []HardDoc, opts func(HardDoc) []aida.AnnotateOption) (WorkloadRun, error) {
	run := WorkloadRun{Name: name}
	for _, d := range docs {
		doc, err := sys.AnnotateDoc(ctx, d.Text, opts(d)...)
		if err != nil {
			return run, fmt.Errorf("workload %s, doc %s: %w", name, d.Name, err)
		}
		run.Total += len(d.Gold)
		if !aligned(doc.Annotations, d.Surfaces) {
			continue
		}
		for i, a := range doc.Annotations {
			if a.Entity == d.Gold[i] {
				run.Correct++
			}
		}
	}
	if run.Total > 0 {
		run.Accuracy = float64(run.Correct) / float64(run.Total)
	}
	return run, nil
}

// aligned reports whether recognition produced exactly the expected
// surfaces, in order.
func aligned(anns []aida.Annotation, surfaces []string) bool {
	if len(anns) != len(surfaces) {
		return false
	}
	for i, a := range anns {
		if a.Mention.Text != surfaces[i] {
			return false
		}
	}
	return true
}

// DomainDictionaryFor builds the per-domain dictionary that makes each
// workload document's gold sense the dominant sense of its surface: one
// row per distinct surface, targeting the gold entity by canonical name
// with 5× the surface's total anchor mass. Registering it as a domain
// layer flips the prior baseline's answer to the gold sense without
// touching the base KB.
func DomainDictionaryFor(store kb.Store, name string, docs []HardDoc) kb.DomainDictionary {
	dict := kb.DomainDictionary{Name: name}
	seen := make(map[string]bool)
	for _, d := range docs {
		for i, s := range d.Surfaces {
			if seen[s] {
				continue
			}
			seen[s] = true
			total := 0
			for _, c := range store.Candidates(s) {
				total += c.Count
			}
			dict.Rows = append(dict.Rows, kb.DomainRow{
				Surface: s,
				Entity:  store.Entity(d.Gold[i]).Name,
				Count:   5*total + 1,
			})
		}
	}
	return dict
}
