package live

import (
	"context"
	"log"
	"sync"
	"time"

	"aida"
	"aida/internal/emerge"
	"aida/internal/kb"
)

// noteDoc is one buffered document awaiting discovery: its text and the
// deduplicated mention surfaces the annotation run recognized.
type noteDoc struct {
	text     string
	surfaces []string
}

// Loop drives the graduation feedback cycle against a serving System:
// annotated documents containing out-of-KB mentions are buffered (Note),
// periodically re-run through the emerging-entity discovery pipeline
// against the serving KB generation, the discoveries accumulate in
// a Graduator, and graduated entities are installed via ApplyDelta and
// journaled. The very next annotation request after an apply can link the
// graduated entity by name.
type Loop struct {
	// System is the serving system deltas are applied to.
	System *aida.System
	// Graduator accumulates evidence (nil = a fresh default Graduator).
	Graduator *Graduator
	// Journal, when set, records every applied delta for replay on boot.
	Journal *Journal
	// MaxCandidates caps dictionary candidates per mention (0 = no cap).
	MaxCandidates int
	// Logger receives progress lines (nil = silent).
	Logger *log.Logger

	mu   sync.Mutex
	docs []noteDoc
}

func (l *Loop) graduator() *Graduator {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Graduator == nil {
		l.Graduator = NewGraduator()
	}
	return l.Graduator
}

// maxDocs bounds the buffered document window; beyond it the oldest
// documents are dropped.
const maxDocs = 64

func (l *Loop) logf(format string, args ...any) {
	if l.Logger != nil {
		l.Logger.Printf(format, args...)
	}
}

// Note offers one annotated document to the loop. Only documents with at
// least one out-of-KB mention (Entity == NoEntity) are buffered — linked
// documents carry no emerging evidence. Safe for concurrent use; intended
// as the server's OnDocument hook.
func (l *Loop) Note(text string, anns []aida.Annotation) {
	hasEE := false
	seen := make(map[string]bool, len(anns))
	surfaces := make([]string, 0, len(anns))
	for _, a := range anns {
		if a.Entity == kb.NoEntity {
			hasEE = true
		}
		if s := a.Mention.Text; !seen[s] {
			seen[s] = true
			surfaces = append(surfaces, s)
		}
	}
	if !hasEE || len(surfaces) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.docs = append(l.docs, noteDoc{text: text, surfaces: surfaces})
	if over := len(l.docs) - maxDocs; over > 0 {
		l.docs = append(l.docs[:0:0], l.docs[over:]...)
	}
}

// Buffered reports how many documents await the next RunOnce.
func (l *Loop) Buffered() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.docs)
}

// RunOnce drains the buffered documents, runs emerging-entity discovery
// over them as one harvesting chunk against the serving KB generation,
// folds the results into the Graduator, and — when surfaces graduated —
// applies the resulting delta to the System and journals it. It returns
// the apply receipt and whether a delta was applied.
//
// Concurrent appliers (the admin delta endpoint) are safe: ApplyDelta
// validates the delta against the generation actually serving, so a
// racing apply surfaces as a rejected delta, never a corrupted store. The
// drained evidence is consumed either way.
func (l *Loop) RunOnce(ctx context.Context) (aida.DeltaReceipt, bool, error) {
	l.mu.Lock()
	docs := l.docs
	l.docs = nil
	l.mu.Unlock()

	g := l.graduator()
	if len(docs) > 0 {
		lv := l.System.Live()
		pl := &emerge.Pipeline{
			KB:            lv.Store,
			MaxCandidates: l.MaxCandidates,
			Scorer:        lv.Engine,
			Context:       ctx,
		}
		chunk := make([]emerge.ChunkDoc, len(docs))
		surfaceSet := make(map[string]bool)
		var allSurfaces []string
		for i, d := range docs {
			chunk[i] = emerge.ChunkDoc{Text: d.text, Surfaces: d.surfaces}
			for _, s := range d.surfaces {
				if !surfaceSet[s] {
					surfaceSet[s] = true
					allSurfaces = append(allSurfaces, s)
				}
			}
		}
		// Harvest the whole window once; each document is then discovered
		// against the shared placeholder models.
		models := pl.Models(chunk, allSurfaces, nil)
		if ctx.Err() != nil {
			return aida.DeltaReceipt{}, false, ctx.Err()
		}
		var disc emerge.Discoverer
		for _, d := range docs {
			if ctx.Err() != nil {
				return aida.DeltaReceipt{}, false, ctx.Err()
			}
			p := pl.Problem(d.text, d.surfaces, nil)
			g.Observe(disc.Discover(p, models))
		}
	}

	delta := g.Graduate(l.System.Store())
	if delta == nil {
		return aida.DeltaReceipt{}, false, nil
	}
	receipt, appendErr, err := l.Journal.Apply(l.System, delta)
	if err != nil {
		return aida.DeltaReceipt{}, false, err
	}
	l.logf("live: graduated %d entities (%d rows) -> generation %d, %d KB entities",
		receipt.Entities, receipt.Rows, receipt.Generation, receipt.KBEntities)
	if appendErr != nil {
		// The apply already happened; a journal failure costs
		// durability, not correctness. Log and keep serving.
		l.logf("live: journal append failed: %v", appendErr)
	}
	return receipt, true, nil
}

// Run calls RunOnce every interval until ctx is canceled. Errors are
// logged and do not stop the loop.
func (l *Loop) Run(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, _, err := l.RunOnce(ctx); err != nil && ctx.Err() == nil {
				l.logf("live: graduation pass failed: %v", err)
			}
		}
	}
}
