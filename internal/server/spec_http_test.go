package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"aida"
	"aida/internal/kb"
)

// TestAnnotateValidationErrorParity pins the cross-layer error contract of
// the request-spec API: a bad request rejected over HTTP carries a 400
// with EXACTLY the error text the Go API produces for the same spec —
// asserted both against the literal strings (mirroring spec_test.go in the
// root package) and live against sys.ValidateRequest.
func TestAnnotateValidationErrorParity(t *testing.T) {
	k, docs := testWorld(t, 1)
	sys, ts := newTestServer(t, k, Config{})

	manyKeyphrases := make([]string, aida.MaxContextKeyphrases+1)
	for i := range manyKeyphrases {
		manyKeyphrases[i] = "quantum chromodynamics"
	}
	manyEntities := make([]aida.EntityID, aida.MaxContextEntities+1)

	cases := []struct {
		name string
		spec aida.RequestSpec
		want string
	}{
		{
			name: "unknown method",
			spec: aida.RequestSpec{Method: "bogus"},
			want: `unknown method "bogus" (want aida, cuc, iw, kul-ci, prior, sim, tagme)`,
		},
		{
			name: "negative parallelism",
			spec: aida.RequestSpec{Parallelism: -2},
			want: "invalid parallelism -2: must be >= 0 (0 means the default)",
		},
		{
			name: "unknown domain",
			spec: aida.RequestSpec{Domain: "medicine"},
			want: `unknown domain "medicine" (no domains registered)`,
		},
		{
			name: "oversized context keyphrases",
			spec: aida.RequestSpec{Context: &aida.ContextSpec{Keyphrases: manyKeyphrases}},
			want: "context too large: 65 keyphrases exceed the limit of 64",
		},
		{
			name: "oversized context entities",
			spec: aida.RequestSpec{Context: &aida.ContextSpec{Entities: manyEntities}},
			want: "context too large: 257 entities exceed the limit of 256",
		},
		{
			name: "context weight out of range",
			spec: aida.RequestSpec{Context: &aida.ContextSpec{Keyphrases: []string{"physics"}, Weight: 1.5}},
			want: "invalid context weight 1.5: must be in [0, 1]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The Go layer's verdict for the identical spec.
			goErr := sys.ValidateRequest(&tc.spec)
			if goErr == nil || goErr.Error() != tc.want {
				t.Fatalf("ValidateRequest = %v, want %q", goErr, tc.want)
			}

			endpoints := []struct {
				name string
				url  string
				body any
			}{
				{"annotate", ts.URL + "/v1/annotate", annotateRequest{Text: docs[0], RequestSpec: tc.spec}},
				{"batch", ts.URL + "/v1/annotate/batch", batchRequest{Docs: docs, RequestSpec: tc.spec}},
				// The streaming batch path commits its 200 before the first
				// document, so it must pre-validate and 400 just the same.
				{"batch stream", ts.URL + "/v1/annotate/batch?stream=1", batchRequest{Docs: docs, RequestSpec: tc.spec}},
			}
			for _, ep := range endpoints {
				resp := postJSON(t, ep.url, ep.body)
				body := readAll(t, resp)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d (body %s), want 400", ep.name, resp.StatusCode, body)
					continue
				}
				var er struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(body, &er); err != nil {
					t.Errorf("%s: non-JSON error body %q: %v", ep.name, body, err)
					continue
				}
				if er.Error != goErr.Error() {
					t.Errorf("%s: HTTP error %q != Go error %q", ep.name, er.Error, goErr)
				}
			}
		})
	}
}

// TestAnnotateConfidenceIterationsCap: the CONF iteration count is capped
// at MaxConfidenceIterations, so one request cannot pin a worker for a
// billion perturbation rounds. The cap itself is served; one more is a 400
// carrying the resolution error's text.
func TestAnnotateConfidenceIterationsCap(t *testing.T) {
	k, docs := testWorld(t, 1)
	sys, ts := newTestServer(t, k, Config{})

	for _, tc := range []struct {
		iterations int
		status     int
	}{
		{aida.MaxConfidenceIterations, http.StatusOK},
		{aida.MaxConfidenceIterations + 1, http.StatusBadRequest},
	} {
		spec := aida.RequestSpec{Confidence: &aida.ConfidenceSpec{Iterations: tc.iterations, Seed: 7}}
		resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: docs[0], RequestSpec: spec})
		body := readAll(t, resp)
		if resp.StatusCode != tc.status {
			t.Fatalf("iterations %d: status %d (body %s), want %d", tc.iterations, resp.StatusCode, body, tc.status)
		}
		if tc.status == http.StatusOK {
			continue
		}
		goErr := sys.ValidateRequest(&spec)
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &er); err != nil || goErr == nil || er.Error != goErr.Error() {
			t.Fatalf("iterations %d: error body %s, want the Go error %v", tc.iterations, body, goErr)
		}
	}
}

// TestBatchRejectsPerMentionExtras pins the batch endpoint's shape guard:
// candidates, confidence and stats only exist on /v1/annotate.
func TestBatchRejectsPerMentionExtras(t *testing.T) {
	k, docs := testWorld(t, 2)
	_, ts := newTestServer(t, k, Config{})
	want := "batch responses carry annotations only: request candidates, confidence or stats via /v1/annotate"

	for _, spec := range []aida.RequestSpec{
		{Candidates: true},
		{Confidence: &aida.ConfidenceSpec{Iterations: 3}},
		{Stats: true},
	} {
		resp := postJSON(t, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs, RequestSpec: spec})
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d (body %s), want 400", spec, resp.StatusCode, body)
		}
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &er); err != nil || er.Error != want {
			t.Fatalf("spec %+v: error body %s, want %q", spec, body, want)
		}
	}
}

// TestAnnotateDomainAndContextOverHTTP drives the happy path of the new
// request fields end to end: a domain layer and a context prior change the
// chosen entities over HTTP exactly as they do in-process.
func TestAnnotateDomainAndContextOverHTTP(t *testing.T) {
	k, docs := testWorld(t, 1)
	sys, ts := newTestServer(t, k, Config{})

	surface := k.Names()[0]
	entity := k.Entity(k.Candidates(surface)[0].Entity).Name
	if err := sys.RegisterDomain(aida.DomainDictionary{
		Name: "news",
		Rows: []kb.DomainRow{{Surface: surface, Entity: entity, Count: 1}},
	}); err != nil {
		t.Fatal(err)
	}

	for _, spec := range []aida.RequestSpec{
		{Domain: "news"},
		{Context: &aida.ContextSpec{Keyphrases: []string{"championship season"}, Weight: 0.4}},
	} {
		resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: docs[0], RequestSpec: spec})
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spec %+v: status %d (body %s)", spec, resp.StatusCode, body)
		}
		doc, err := sys.AnnotateDoc(t.Context(), docs[0], spec.Options()...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wireAnnotations(doc.Annotations))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Annotations json.RawMessage `json:"annotations"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("spec %+v: bad response body %s: %v", spec, body, err)
		}
		if string(got.Annotations) != string(want) {
			t.Errorf("spec %+v: HTTP annotations diverge from in-process:\n http: %s\n go:   %s",
				spec, got.Annotations, want)
		}
	}
}

// TestAnnotateMentionsOverHTTP drives the given-mentions field end to end:
// /v1/annotate links the given surfaces at their offsets exactly as the Go
// API does, a surface the text does not hold is a 400 with the Go error's
// text, and the batch endpoint rejects the field before any output.
func TestAnnotateMentionsOverHTTP(t *testing.T) {
	k, docs := testWorld(t, 2)
	sys, ts := newTestServer(t, k, Config{})
	text := docs[0]
	rec, err := sys.AnnotateDoc(t.Context(), text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Annotations) < 2 {
		t.Fatalf("test document has %d mentions, want at least 2", len(rec.Annotations))
	}
	surfaces := []string{rec.Annotations[0].Mention.Text, rec.Annotations[len(rec.Annotations)-1].Mention.Text}

	spec := aida.RequestSpec{Mentions: surfaces}
	resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: text, RequestSpec: spec})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s), want 200", resp.StatusCode, body)
	}
	var got annotateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Annotations) != len(surfaces) {
		t.Fatalf("%d annotations for %d given mentions: %s", len(got.Annotations), len(surfaces), body)
	}
	for i, a := range got.Annotations {
		if a.Text != surfaces[i] || text[a.Start:a.End] != a.Text {
			t.Errorf("annotation %d = %+v does not sit on %q", i, a, surfaces[i])
		}
	}
	doc, err := sys.AnnotateDoc(t.Context(), text, spec.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if want := wireAnnotations(doc.Annotations); !reflect.DeepEqual(got.Annotations, want) {
		t.Errorf("HTTP annotations %+v diverge from in-process %+v", got.Annotations, want)
	}

	for _, tc := range []struct {
		url  string
		body any
		want string
	}{
		{ts.URL + "/v1/annotate", annotateRequest{Text: text, RequestSpec: aida.RequestSpec{Mentions: []string{"Zzyzx"}}},
			`invalid mentions: surface 0 ("Zzyzx") not found as whole tokens in the text at or after byte 0`},
		{ts.URL + "/v1/annotate/batch", batchRequest{Docs: docs, RequestSpec: spec},
			"mentions belong to one document: send them to /v1/annotate"},
		{ts.URL + "/v1/annotate/batch?stream=1", batchRequest{Docs: docs, RequestSpec: spec},
			"mentions belong to one document: send them to /v1/annotate"},
	} {
		resp := postJSON(t, tc.url, tc.body)
		body := readAll(t, resp)
		var er struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Error != tc.want {
			t.Errorf("POST %s: status %d body %s, want 400 %q", tc.url, resp.StatusCode, body, tc.want)
		}
	}
}
