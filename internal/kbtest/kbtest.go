// Package kbtest is the golden-corpus conformance harness for kb.Store
// implementations: it runs the full annotation pipeline (recognition,
// candidate materialization, AIDA disambiguation, CONF confidence) over a
// committed corpus of ambiguous-mention documents and pins the output —
// annotations, per-candidate priors and scores, confidence, work counters
// — byte for byte.
//
// The committed fixtures live in testdata/golden/: docs.json holds the
// documents (regenerate with the checked-in generator in ./gen), and
// expected/<name>.json holds the expected wire output of the unsharded
// KB. TestGoldenCorpus asserts that the plain *kb.KB and its ShardedKB
// placement views at 2, 4 and 8 shards reproduce those bytes exactly (the
// overlay, domain and fleet suites hold the other stores to them), which
// is the contract that lets a sharded fleet replace a single process
// without any output drift ("Namesakes"-style silent regressions on
// ambiguous names are exactly what this pins).
//
// Run `go test ./internal/kbtest -update` to regenerate the expected
// outputs after an intentional pipeline change.
package kbtest

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"aida"
	"aida/internal/kb"
	"aida/internal/wiki"
)

// Update rewrites the expected golden outputs from the unsharded KB's
// current behavior instead of asserting against them.
var Update = flag.Bool("update", false, "rewrite testdata/golden/expected from current unsharded output")

// Golden-world parameters. Changing any of these invalidates the
// committed fixtures; regenerate docs.json (./gen) and the expected
// outputs (-update) together.
const (
	// Seed fixes the synthetic world behind the golden corpus.
	Seed = 20130610
	// Entities is the golden world's repository size.
	Entities = 300
	// MaxCandidates is the candidate cap of the conformance systems.
	MaxCandidates = 20
	// ConfIterations / ConfSeed parameterize the pinned CONF confidence
	// scores (entity perturbation is seeded, so they are deterministic).
	ConfIterations = 4
	ConfSeed       = 7
)

// ShardCounts are the shard placements the conformance suite runs at, in
// addition to the unsharded KB.
var ShardCounts = []int{1, 2, 4, 8}

// goldenKB builds the golden world's KB once per process.
var goldenKB = sync.OnceValue(func() *kb.KB {
	return wiki.Generate(wiki.Config{Seed: Seed, Entities: Entities}).KB
})

// GoldenKB returns the deterministic knowledge base behind the golden
// corpus (shared across calls; the KB is immutable).
func GoldenKB() *kb.KB { return goldenKB() }

// NamedStore is one Store implementation under conformance test.
type NamedStore struct {
	Name  string
	Store kb.Store
}

// Stores returns the in-process stores the suite pins: the unsharded KB
// and its ShardedKB placement view at each of ShardCounts.
func Stores() []NamedStore {
	k := GoldenKB()
	out := []NamedStore{{Name: "unsharded", Store: k}}
	for _, n := range ShardCounts {
		out = append(out, NamedStore{Name: shardName(n), Store: kb.Shard(k, n)})
	}
	return out
}

func shardName(n int) string {
	return "sharded-" + strconv.Itoa(n)
}

// Doc is one committed golden-corpus document.
type Doc struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// DocsPath is the committed corpus file, relative to this package.
const DocsPath = "testdata/golden/docs.json"

// Docs loads the committed golden corpus.
func Docs(t testing.TB) []Doc {
	t.Helper()
	data, err := os.ReadFile(DocsPath)
	if err != nil {
		t.Fatalf("read golden corpus: %v (regenerate with go run ./internal/kbtest/gen)", err)
	}
	var docs []Doc
	if err := json.Unmarshal(data, &docs); err != nil {
		t.Fatalf("parse golden corpus: %v", err)
	}
	if len(docs) == 0 {
		t.Fatal("golden corpus is empty")
	}
	return docs
}

// ExpectedPath returns the committed expected-output file for a document.
func ExpectedPath(name string) string {
	return filepath.Join("testdata", "golden", "expected", name+".json")
}

// NewSystem builds the conformance pipeline over a store: full AIDA
// method, fixed candidate cap — the same configuration for every Store so
// outputs are comparable.
func NewSystem(s kb.Store) *aida.System {
	return aida.New(s, aida.WithMaxCandidates(MaxCandidates))
}

// Wire shapes of the pinned output. Field order is fixed by these structs,
// so the marshaled bytes are stable.

type wireAnnotation struct {
	Text   string      `json:"text"`
	Start  int         `json:"start"`
	End    int         `json:"end"`
	Entity kb.EntityID `json:"entity"`
	Label  string      `json:"label"`
	Score  float64     `json:"score"`
}

type wireCandidate struct {
	Entity kb.EntityID `json:"entity"`
	Label  string      `json:"label"`
	Prior  float64     `json:"prior"`
	Score  float64     `json:"score"`
}

type wireStats struct {
	Comparisons   int `json:"comparisons"`
	GraphEntities int `json:"graph_entities"`
}

type wireDoc struct {
	Annotations []wireAnnotation  `json:"annotations"`
	Candidates  [][]wireCandidate `json:"candidates"`
	Confidence  []float64         `json:"confidence"`
	Stats       wireStats         `json:"stats"`
}

// ConformanceOptions are the AnnotateDoc options of the pinned pipeline
// run: candidates, seeded CONF confidence and work counters all included,
// so every field of the wire shape is populated.
func ConformanceOptions() []aida.AnnotateOption {
	return []aida.AnnotateOption{
		aida.IncludeCandidates(),
		aida.IncludeConfidence(ConfIterations, ConfSeed),
		aida.IncludeStats(),
	}
}

// AnnotateJSON runs the full pipeline on one document and returns the
// canonical JSON the conformance suite compares byte for byte: the
// annotations, the per-mention candidate lists with priors and final
// scores, the seeded CONF confidence vector and the work counters.
func AnnotateJSON(t testing.TB, sys *aida.System, text string) []byte {
	t.Helper()
	doc, err := sys.AnnotateDoc(context.Background(), text, ConformanceOptions()...)
	if err != nil {
		t.Fatalf("AnnotateDoc: %v", err)
	}
	data, err := MarshalDoc(doc)
	if err != nil {
		t.Fatalf("marshal golden output: %v", err)
	}
	return data
}

// MarshalDoc renders an annotated document in the suite's canonical JSON
// form. The document must come from a run with ConformanceOptions.
func MarshalDoc(doc *aida.Document) ([]byte, error) {
	out := wireDoc{
		Annotations: make([]wireAnnotation, len(doc.Annotations)),
		Candidates:  make([][]wireCandidate, len(doc.Candidates)),
		Confidence:  doc.Confidence,
	}
	for i, a := range doc.Annotations {
		out.Annotations[i] = wireAnnotation{
			Text: a.Mention.Text, Start: a.Mention.Start, End: a.Mention.End,
			Entity: a.Entity, Label: a.Label, Score: a.Score,
		}
	}
	for i, cands := range doc.Candidates {
		wc := make([]wireCandidate, len(cands))
		for j, c := range cands {
			wc[j] = wireCandidate{Entity: c.Entity, Label: c.Label, Prior: c.Prior, Score: c.Score}
		}
		out.Candidates[i] = wc
	}
	if doc.Stats != nil {
		out.Stats = wireStats{Comparisons: doc.Stats.Comparisons, GraphEntities: doc.Stats.GraphEntities}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
