package kbtest

import (
	"context"
	"testing"
)

// The hard-ambiguity gates. Both corpora are deterministic functions of
// the golden KB, so the three measured accuracies are exact and stable;
// the assertions below pin generous floors under the measured values
// (short: base=0.000 ctx=0.865 dom=0.892 over 37 docs; hard: base=0.021
// ctx=0.894 dom=0.936 over 47 docs) so the gate survives small KB-world
// adjustments while still failing loudly if the context prior or domain
// layers stop working. The headline bar — context-prior strictly
// beats the coherence-only baseline on the short-text corpus — is
// asserted directly, not via floors.

func runWorkload(t *testing.T, corpus string, docs []HardDoc) HardWorkloadReport {
	t.Helper()
	store := GoldenKB()
	sys := NewSystem(store)
	domain := corpus + "-gold"
	if err := sys.RegisterDomain(DomainDictionaryFor(store, domain, docs)); err != nil {
		t.Fatalf("RegisterDomain(%s): %v", domain, err)
	}
	rep, err := RunHardWorkload(context.Background(), sys, corpus, docs, domain)
	if err != nil {
		t.Fatalf("RunHardWorkload(%s): %v", corpus, err)
	}
	t.Logf("%s: docs=%d mentions=%d baseline=%.4f context=%.4f domain=%.4f",
		corpus, rep.Docs, rep.Mentions,
		rep.Baseline.Accuracy, rep.ContextPrior.Accuracy, rep.DomainLayer.Accuracy)
	return rep
}

func checkRuns(t *testing.T, rep HardWorkloadReport, minDocs int, maxBase, minCtx, minDom float64) {
	t.Helper()
	if rep.Docs < minDocs {
		t.Fatalf("%s corpus too small: %d docs, want >= %d", rep.Corpus, rep.Docs, minDocs)
	}
	if rep.Mentions != rep.Docs {
		t.Errorf("%s: mentions = %d, want one per doc (%d)", rep.Corpus, rep.Mentions, rep.Docs)
	}
	for _, run := range []WorkloadRun{rep.Baseline, rep.ContextPrior, rep.DomainLayer} {
		if run.Total != rep.Mentions {
			t.Errorf("%s %s: scored %d mentions, want %d", rep.Corpus, run.Name, run.Total, rep.Mentions)
		}
	}
	// The acceptance bar: request context must strictly improve on the
	// coherence-only baseline.
	if rep.ContextPrior.Accuracy <= rep.Baseline.Accuracy {
		t.Errorf("%s: context-prior accuracy %.4f does not beat baseline %.4f",
			rep.Corpus, rep.ContextPrior.Accuracy, rep.Baseline.Accuracy)
	}
	// The corpora are prior-hostile by construction: a baseline scoring
	// well means generation stopped producing hard cases.
	if rep.Baseline.Accuracy > maxBase {
		t.Errorf("%s: baseline accuracy %.4f > %.2f — corpus is no longer prior-hostile",
			rep.Corpus, rep.Baseline.Accuracy, maxBase)
	}
	if rep.ContextPrior.Accuracy < minCtx {
		t.Errorf("%s: context-prior accuracy %.4f below floor %.2f",
			rep.Corpus, rep.ContextPrior.Accuracy, minCtx)
	}
	if rep.DomainLayer.Accuracy < minDom {
		t.Errorf("%s: domain-layer accuracy %.4f below floor %.2f",
			rep.Corpus, rep.DomainLayer.Accuracy, minDom)
	}
}

func TestShortTextWorkloadGate(t *testing.T) {
	docs := ShortTextCorpus(GoldenKB(), 0)
	rep := runWorkload(t, "short", docs)
	checkRuns(t, rep, 20, 0.20, 0.80, 0.85)
}

func TestHardAmbiguityWorkloadGate(t *testing.T) {
	docs := HardAmbiguityCorpus(GoldenKB(), 0)
	rep := runWorkload(t, "hard", docs)
	checkRuns(t, rep, 20, 0.20, 0.85, 0.90)
}

// TestWorkloadSkipsDomainWhenUnnamed pins the domain == "" contract: the
// domain-layer run is skipped and left zero-valued.
func TestWorkloadSkipsDomainWhenUnnamed(t *testing.T) {
	store := GoldenKB()
	sys := NewSystem(store)
	docs := ShortTextCorpus(store, 3)
	rep, err := RunHardWorkload(context.Background(), sys, "short", docs, "")
	if err != nil {
		t.Fatalf("RunHardWorkload: %v", err)
	}
	if rep.DomainLayer != (WorkloadRun{}) {
		t.Errorf("domain-layer run not skipped: %+v", rep.DomainLayer)
	}
	if rep.Baseline.Total != 3 {
		t.Errorf("baseline total = %d, want 3", rep.Baseline.Total)
	}
}

// TestWorkloadPenalizesMisalignedRecognition pins the scoring rule: a
// document whose expected surfaces disagree with recognition contributes
// its mentions to Total but never to Correct.
func TestWorkloadPenalizesMisalignedRecognition(t *testing.T) {
	store := GoldenKB()
	sys := NewSystem(store)
	docs := ShortTextCorpus(store, 1)
	docs[0].Surfaces = []string{"No Such Surface"}
	rep, err := RunHardWorkload(context.Background(), sys, "short", docs, "")
	if err != nil {
		t.Fatalf("RunHardWorkload: %v", err)
	}
	if rep.Baseline.Total != 1 || rep.Baseline.Correct != 0 {
		t.Errorf("baseline = %+v, want Total=1 Correct=0", rep.Baseline)
	}
	if rep.ContextPrior.Correct != 0 {
		t.Errorf("context-prior = %+v, want Correct=0", rep.ContextPrior)
	}
}

// TestDomainDictionaryForTargetsGold sanity-checks the generated
// dictionary: one row per distinct surface, each resolving to the doc's
// gold entity with enough mass to dominate the family.
func TestDomainDictionaryForTargetsGold(t *testing.T) {
	store := GoldenKB()
	docs := ShortTextCorpus(store, 5)
	dict := DomainDictionaryFor(store, "gate", docs)
	if dict.Name != "gate" {
		t.Fatalf("dict name = %q", dict.Name)
	}
	if len(dict.Rows) != len(docs) {
		t.Fatalf("rows = %d, want %d (one per distinct surface)", len(dict.Rows), len(docs))
	}
	for i, row := range dict.Rows {
		want := store.Entity(docs[i].Gold[0]).Name
		if row.Entity != want {
			t.Errorf("row %d: entity %q, want gold %q", i, row.Entity, want)
		}
		total := 0
		for _, c := range store.Candidates(row.Surface) {
			total += c.Count
		}
		if row.Count <= 4*total {
			t.Errorf("row %d: count %d does not dominate family mass %d", i, row.Count, total)
		}
	}
}
