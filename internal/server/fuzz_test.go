package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"aida"
	"aida/internal/wiki"
)

// FuzzAnnotateBody sends arbitrary bytes through the whole request path —
// JSON body → RequestSpec → option resolution → annotate → encode — on both
// annotation endpoints over a tiny KB. Whatever the body, the server must
// not panic, must answer 200, 400 or 413 and nothing else, and every 200
// must carry a body that decodes into the endpoint's response shape. The
// confidence-iteration cap is what keeps a single body from pinning the
// fuzzer for minutes.
func FuzzAnnotateBody(f *testing.F) {
	w := wiki.Generate(wiki.Config{Seed: 17, Entities: 40})
	doc := w.GenerateCorpus(wiki.CoNLLSpec(1, 23))[0].Text
	for _, v := range []any{
		map[string]any{"text": doc},
		map[string]any{"text": doc, "method": "prior", "candidates": true, "stats": true},
		map[string]any{"text": doc, "confidence": map[string]any{"iterations": 3, "seed": 7}},
		map[string]any{"text": doc, "confidence": map[string]any{"iterations": aida.MaxConfidenceIterations + 1}},
		map[string]any{"text": doc, "context": map[string]any{"keyphrases": []string{"championship"}, "weight": 0.5}},
		map[string]any{"text": doc, "max_candidates": 0, "surface_expansion": true, "parallelism": -1},
		map[string]any{"docs": []string{doc, doc}, "parallelism": 4, "method": "sim"},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{``, `{`, `null`, `{"docs":[]}`, `{"text":"` + doc[:20]} {
		f.Add([]byte(s))
	}

	sys := aida.New(w.KB, aida.WithMaxCandidates(10))
	h := New(sys, Config{Logger: quietLogger(), MaxBodyBytes: 4 << 10, MaxBatchDocs: 8}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []struct {
			path string
			out  any
		}{
			{"/v1/annotate", &annotateResponse{}},
			{"/v1/annotate/batch", &batchResponse{}},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
				if err := json.Unmarshal(rec.Body.Bytes(), ep.out); err != nil {
					t.Fatalf("POST %s %q: 200 body %q does not decode: %v", ep.path, body, rec.Body.Bytes(), err)
				}
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("POST %s %q: status %d (body %s), want 200, 400 or 413", ep.path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
