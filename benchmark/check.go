package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"aida"
	"aida/internal/kb"
	"aida/internal/server"
)

// wireCandidate, wireDocument and wireLine are the response shapes of
// /v1/annotate and of one NDJSON line of /v1/annotate/batch.
type wireCandidate struct {
	Entity aida.EntityID `json:"entity"`
	Label  string        `json:"label"`
	Prior  float64       `json:"prior"`
	Score  float64       `json:"score"`
}

type wireDocument struct {
	Annotations []server.Annotation `json:"annotations"`
	Candidates  [][]wireCandidate   `json:"candidates"`
	Confidence  []float64           `json:"confidence"`
}

type wireLine struct {
	Index       int                 `json:"index"`
	Annotations []server.Annotation `json:"annotations"`
}

// referenceSystem builds, in process, the System the server builds from
// the generated files: same KB, shard count, candidate cap, journaled
// deltas and domain layers. The repository guarantees annotations are
// byte-identical between the two, which is what the output check holds the
// served responses to.
func (in *inputs) referenceSystem() (*aida.System, error) {
	var store aida.Store = in.world.KB
	if in.wl.shards > 1 {
		store = aida.ShardKB(in.world.KB, in.wl.shards)
	}
	sys := aida.New(store, aida.WithMaxCandidates(maxCandidates))
	for g, d := range in.journaled {
		if _, err := sys.ApplyDelta(d); err != nil {
			return nil, fmt.Errorf("reference: apply journaled delta %d: %w", g, err)
		}
	}
	if in.wl.tenanted {
		for _, dict := range in.domains {
			if err := sys.RegisterDomain(dict); err != nil {
				return nil, fmt.Errorf("reference: register domain %q: %w", dict.Name, err)
			}
		}
	}
	return sys, nil
}

// referenceDoc annotates document i in process under the spec its request
// carries. Parallelism is pinned to 1: it never changes output, and the
// reference runs several documents at once.
func (in *inputs) referenceDoc(sys *aida.System, i int) (*aida.Document, error) {
	if in.wl.batch > 0 {
		return sys.AnnotateDoc(context.Background(), in.docs[i].text, aida.WithParallelism(1))
	}
	var b annotateBody
	if err := json.Unmarshal(in.reqs[i].body, &b); err != nil {
		return nil, err
	}
	b.Parallelism = 1
	return sys.AnnotateDoc(context.Background(), b.Text, b.RequestSpec.Options()...)
}

// sameAnnotations reports how served annotations differ from the
// reference's, or nil.
func sameAnnotations(got []server.Annotation, want []aida.Annotation) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d annotations, reference has %d", len(got), len(want))
	}
	for i, w := range want {
		ref := server.Annotation{Text: w.Mention.Text, Start: w.Mention.Start, End: w.Mention.End,
			Entity: w.Entity, Label: w.Label, Score: w.Score}
		if got[i] != ref {
			return fmt.Errorf("annotation %d: served %+v, reference %+v", i, got[i], ref)
		}
	}
	return nil
}

// sameDocument holds a served /v1/annotate response to the reference:
// annotations, and candidate lists and confidence where they were asked.
func sameDocument(got *wireDocument, want *aida.Document) error {
	if err := sameAnnotations(got.Annotations, want.Annotations); err != nil {
		return err
	}
	if len(got.Candidates) != len(want.Candidates) {
		return fmt.Errorf("served %d candidate lists, reference has %d", len(got.Candidates), len(want.Candidates))
	}
	for i, list := range want.Candidates {
		if len(got.Candidates[i]) != len(list) {
			return fmt.Errorf("mention %d: served %d candidates, reference has %d", i, len(got.Candidates[i]), len(list))
		}
		for j, c := range list {
			if ref := (wireCandidate{Entity: c.Entity, Label: c.Label, Prior: c.Prior, Score: c.Score}); got.Candidates[i][j] != ref {
				return fmt.Errorf("mention %d candidate %d: served %+v, reference %+v", i, j, got.Candidates[i][j], ref)
			}
		}
	}
	if len(got.Confidence) != len(want.Confidence) {
		return fmt.Errorf("served %d confidence scores, reference has %d", len(got.Confidence), len(want.Confidence))
	}
	for i, c := range want.Confidence {
		if got.Confidence[i] != c {
			return fmt.Errorf("confidence %d: served %v, reference %v", i, got.Confidence[i], c)
		}
	}
	return nil
}

// wellFormed checks what must hold of any response whatever the KB
// generation that served it: spans in text order inside the text, carrying
// the text they cover, and entity ids inside the repository.
func wellFormed(text string, anns []server.Annotation, numEntities int) error {
	prev := 0
	for i, a := range anns {
		if a.Start < prev || a.End <= a.Start || a.End > len(text) {
			return fmt.Errorf("annotation %d: span [%d,%d) out of order or outside the %d-byte text", i, a.Start, a.End, len(text))
		}
		if text[a.Start:a.End] != a.Text {
			return fmt.Errorf("annotation %d: span [%d,%d) covers %q, not %q", i, a.Start, a.End, text[a.Start:a.End], a.Text)
		}
		if a.Entity != kb.NoEntity && (a.Entity < 0 || int(a.Entity) >= numEntities) {
			return fmt.Errorf("annotation %d: entity %d outside [0,%d)", i, a.Entity, numEntities)
		}
		prev = a.End
	}
	return nil
}

// goldHits counts the document's gold in-KB mentions and how many of them
// the served annotations link to the gold entity over the exact span.
func goldHits(d *document, anns []server.Annotation) (correct, total int) {
	byStart := make(map[int]server.Annotation, len(anns))
	for _, a := range anns {
		byStart[a.Start] = a
	}
	for _, g := range d.gold {
		if a, ok := byStart[g.start]; ok && a.End == g.end && a.Entity == g.entity {
			correct++
		}
	}
	return correct, len(d.gold)
}

// parseBatchLines splits an NDJSON batch response into its per-document
// lines, which the server emits strictly in input order.
func parseBatchLines(body []byte, n int) ([]wireLine, error) {
	lines := make([]wireLine, 0, n)
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var l wireLine
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(lines), err)
		}
		if l.Index != len(lines) {
			return nil, fmt.Errorf("line %d carries index %d", len(lines), l.Index)
		}
		lines = append(lines, l)
	}
	if len(lines) != n {
		return nil, fmt.Errorf("batch of %d documents answered with %d lines", n, len(lines))
	}
	return lines, nil
}
