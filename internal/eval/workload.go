package eval

import (
	"context"
	"fmt"

	"aida/internal/kb"
)

// This file is the hard-ambiguity workload harness: it runs a corpus of
// deliberately prior-hostile documents (same-surface entity families where
// the gold sense is NOT the popular one, in short texts where coherence
// has nothing to vote with) through three annotation configurations —
// coherence-only baseline, with the request context prior, and through a
// per-domain dictionary layer — and reports the accuracy of each run. The
// corpora come from internal/kbtest's generators; workload_test.go gates on
// the context-prior run strictly beating the baseline.
//
// The harness is deliberately decoupled from the aida package (which this
// package must not import — aida's own tests import eval): each variant is
// an AnnotateFunc closure, and internal/kbtest provides the standard
// System-backed triple (kbtest.RunHardWorkload).

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

// Annotated is one linked mention as a variant reports it back to the
// harness: the recognized surface and the chosen entity.
type Annotated struct {
	Surface string
	Entity  kb.EntityID
}

// AnnotateFunc runs one workload document under one configuration and
// returns the linked mentions in text order.
type AnnotateFunc func(ctx context.Context, d HardDoc) ([]Annotated, error)

// WorkloadRun is the measured outcome of one variant over a workload.
type WorkloadRun struct {
	Name     string  `json:"name"`
	Correct  int     `json:"correct"`
	Total    int     `json:"total"`
	Accuracy float64 `json:"accuracy"`
}

// HardWorkloadReport is the full result of RunHardWorkload: the same
// corpus measured under the baseline, context-prior and domain-layer
// configurations.
type HardWorkloadReport struct {
	Corpus       string      `json:"corpus"`
	Docs         int         `json:"docs"`
	Mentions     int         `json:"mentions"`
	Baseline     WorkloadRun `json:"baseline"`
	ContextPrior WorkloadRun `json:"context_prior"`
	DomainLayer  WorkloadRun `json:"domain_layer"`
}

// RunHardWorkload measures a hard-ambiguity corpus under three
// configurations: the plain pipeline (baseline), the pipeline with each
// document's request context blended in (contextPrior), and the pipeline
// routed through a per-domain dictionary layer (domainLayer; skipped when
// nil). All three run the same corpus, so the deltas isolate the
// request-context machinery.
func RunHardWorkload(ctx context.Context, corpus string, docs []HardDoc, baseline, contextPrior, domainLayer AnnotateFunc) (HardWorkloadReport, error) {
	rep := HardWorkloadReport{Corpus: corpus, Docs: len(docs)}
	for _, d := range docs {
		rep.Mentions += len(d.Gold)
	}
	var err error
	rep.Baseline, err = runVariant(ctx, "baseline", docs, baseline)
	if err != nil {
		return rep, err
	}
	rep.ContextPrior, err = runVariant(ctx, "context-prior", docs, contextPrior)
	if err != nil {
		return rep, err
	}
	if domainLayer != nil {
		rep.DomainLayer, err = runVariant(ctx, "domain-layer", docs, domainLayer)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runVariant annotates every document with the variant's function and
// scores the mentions against gold. Misaligned recognition (wrong mention
// count or surfaces) scores the whole document as wrong.
func runVariant(ctx context.Context, name string, docs []HardDoc, annotate AnnotateFunc) (WorkloadRun, error) {
	run := WorkloadRun{Name: name}
	for _, d := range docs {
		anns, err := annotate(ctx, d)
		if err != nil {
			return run, fmt.Errorf("workload %s, doc %s: %w", name, d.Name, err)
		}
		run.Total += len(d.Gold)
		if !aligned(anns, d.Surfaces) {
			continue
		}
		for i, a := range anns {
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
func aligned(anns []Annotated, surfaces []string) bool {
	if len(anns) != len(surfaces) {
		return false
	}
	for i, a := range anns {
		if a.Surface != surfaces[i] {
			return false
		}
	}
	return true
}
