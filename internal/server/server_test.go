package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aida"
	"aida/internal/wiki"
)

// testWorld generates a synthetic KB plus a document corpus, mirroring the
// batch tests of the root package.
func testWorld(t testing.TB, docs int) (*aida.KB, []string) {
	t.Helper()
	w := wiki.Generate(wiki.Config{Seed: 17, Entities: 300})
	corpus := w.GenerateCorpus(wiki.CoNLLSpec(docs, 23))
	texts := make([]string, len(corpus))
	for i, d := range corpus {
		texts[i] = d.Text
	}
	return w.KB, texts
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer builds a Server plus httptest front-end over a fresh
// System for the given KB store (a plain KB or a sharded router).
func newTestServer(t testing.TB, k aida.Store, cfg Config) (*aida.System, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	sys := aida.New(k, aida.WithMaxCandidates(10))
	ts := httptest.NewServer(New(sys, cfg).Handler())
	t.Cleanup(ts.Close)
	return sys, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustGet(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// expectedWire marshals the in-process annotations of one document exactly
// as the server encodes them.
func expectedWire(t testing.TB, sys *aida.System, doc string) []byte {
	t.Helper()
	d, err := sys.AnnotateDoc(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wireAnnotations(d.Annotations))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnnotateEndpoint(t *testing.T) {
	k, docs := testWorld(t, 2)
	_, ts := newTestServer(t, k, Config{})
	resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: docs[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got struct {
		Annotations json.RawMessage `json:"annotations"`
	}
	if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	// A separate in-process system must produce the same bytes: the
	// response is a pure function of the KB.
	want := expectedWire(t, aida.New(k, aida.WithMaxCandidates(10)), docs[0])
	if !bytes.Equal(got.Annotations, want) {
		t.Errorf("HTTP annotations diverge from in-process output:\n got %s\nwant %s", got.Annotations, want)
	}
	if len(want) <= len("[]") {
		t.Fatal("test document produced no annotations; corpus spec too small")
	}
}

// TestBatchByteIdenticalToSequential is the headline service guarantee:
// the batch endpoint at any parallelism returns, per document, exactly the
// bytes of a sequential in-process Annotate loop.
func TestBatchByteIdenticalToSequential(t *testing.T) {
	k, docs := testWorld(t, 8)
	_, ts := newTestServer(t, k, Config{})

	seq := aida.New(k, aida.WithMaxCandidates(10))
	want := make([][]byte, len(docs))
	for i, d := range docs {
		want[i] = expectedWire(t, seq, d)
	}

	for _, parallelism := range []int{1, 4} {
		resp := postJSON(t, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs, RequestSpec: aida.RequestSpec{Parallelism: parallelism}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallelism=%d: status %d", parallelism, resp.StatusCode)
		}
		var got struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(docs) {
			t.Fatalf("parallelism=%d: %d results for %d docs", parallelism, len(got.Results), len(docs))
		}
		for i, raw := range got.Results {
			if !bytes.Equal(raw, want[i]) {
				t.Errorf("parallelism=%d doc %d: batch bytes diverge from sequential:\n got %s\nwant %s",
					parallelism, i, raw, want[i])
			}
		}
	}
}

// TestBatchNDJSONStreams checks the streaming variant: one line per
// document, in input order, annotations byte-identical to the JSON batch.
func TestBatchNDJSONStreams(t *testing.T) {
	k, docs := testWorld(t, 6)
	_, ts := newTestServer(t, k, Config{})

	seq := aida.New(k, aida.WithMaxCandidates(10))
	body, _ := json.Marshal(batchRequest{Docs: docs, RequestSpec: aida.RequestSpec{Parallelism: 3}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/annotate/batch", bytes.NewReader(body))
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var line struct {
			Index       int             `json:"index"`
			Annotations json.RawMessage `json:"annotations"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if line.Index != n {
			t.Fatalf("line %d has index %d; stream must be in input order", n, line.Index)
		}
		if want := expectedWire(t, seq, docs[n]); !bytes.Equal(line.Annotations, want) {
			t.Errorf("doc %d: NDJSON bytes diverge from in-process output", n)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(docs) {
		t.Fatalf("stream had %d lines for %d docs", n, len(docs))
	}
}

func TestRelatednessEndpoint(t *testing.T) {
	k, _ := testWorld(t, 1)
	sys, ts := newTestServer(t, k, Config{})
	for _, kind := range []aida.RelatednessKind{aida.MW, aida.KWCS, aida.KPCS, aida.KORE, aida.KORELSHG, aida.KORELSHF} {
		url := fmt.Sprintf("%s/v1/relatedness?kind=%s&a=0&b=1", ts.URL, kind)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d", kind, resp.StatusCode)
		}
		var got relatednessResponse
		if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
			t.Fatal(err)
		}
		if want, err := sys.Relatedness(kind, 0, 1); err != nil || got.Relatedness != want {
			t.Errorf("%v: HTTP %v != in-process %v", kind, got.Relatedness, want)
		}
		if got.Kind != kind.String() {
			t.Errorf("kind echoed as %q, want %q", got.Kind, kind)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	k, _ := testWorld(t, 2)
	_, ts := newTestServer(t, k, Config{MaxBodyBytes: 512, MaxBatchDocs: 2})

	checkError := func(t *testing.T, resp *http.Response, wantStatus int) {
		t.Helper()
		body := readAll(t, resp)
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("error body %q is not {\"error\": ...}", body)
		}
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/annotate", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		checkError(t, resp, http.StatusBadRequest)
	})
	t.Run("oversized body", func(t *testing.T) {
		big := annotateRequest{Text: strings.Repeat("x", 4096)}
		checkError(t, postJSON(t, ts.URL+"/v1/annotate", big), http.StatusRequestEntityTooLarge)
	})
	t.Run("oversized batch", func(t *testing.T) {
		req := batchRequest{Docs: []string{"a", "b", "c"}}
		checkError(t, postJSON(t, ts.URL+"/v1/annotate/batch", req), http.StatusRequestEntityTooLarge)
	})
	t.Run("empty batch", func(t *testing.T) {
		checkError(t, postJSON(t, ts.URL+"/v1/annotate/batch", batchRequest{}), http.StatusBadRequest)
	})
	t.Run("bad kind", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/relatedness?kind=bogus&a=0&b=1")
		if err != nil {
			t.Fatal(err)
		}
		checkError(t, resp, http.StatusBadRequest)
	})
	t.Run("entity out of range", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/relatedness?kind=MW&a=0&b=999999")
		if err != nil {
			t.Fatal(err)
		}
		checkError(t, resp, http.StatusBadRequest)
	})
	t.Run("missing entity", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/relatedness?kind=MW&a=0")
		if err != nil {
			t.Fatal(err)
		}
		checkError(t, resp, http.StatusBadRequest)
	})
	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/annotate")
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/annotate: status %d, want 405", resp.StatusCode)
		}
	})
}

func TestStatsEndpoint(t *testing.T) {
	k, docs := testWorld(t, 4)
	_, ts := newTestServer(t, k, Config{})
	// Drive traffic so the server counters move.
	readAll(t, postJSON(t, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs, RequestSpec: aida.RequestSpec{Parallelism: 2}}))
	readAll(t, mustGet(t, ts.URL+"/v1/relatedness?kind=KORE&a=0&b=1"))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Requests < 1 || st.Server.Documents != int64(len(docs)) {
		t.Errorf("server counters: %+v", st.Server)
	}
	if st.Server.RequestsByEndpoint["/v1/annotate/batch"] != 1 {
		t.Errorf("per-endpoint counters: %+v", st.Server.RequestsByEndpoint)
	}
	if got := len(st.Server.RequestsByEndpoint); got != len(endpoints) {
		t.Errorf("%d endpoint counters reported, want %d", got, len(endpoints))
	}
	if st.Server.Canceled != 0 {
		t.Errorf("canceled = %d with no disconnects", st.Server.Canceled)
	}
	if st.KB.Entities != k.NumEntities() {
		t.Errorf("kb entities = %d, want %d", st.KB.Entities, k.NumEntities())
	}

	promResp, err := http.Get(ts.URL + "/v1/stats?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom := string(readAll(t, promResp))
	for _, metric := range []string{
		"aida_server_requests_total",
		"aida_server_documents_total",
		"aida_server_requests_canceled_total",
		`aida_server_endpoint_requests_total{endpoint="/v1/annotate/batch"} 1`,
		`aida_server_endpoint_requests_total{endpoint="/healthz"}`,
		"aida_kb_entities",
		// The tenant families are always present (values only under a
		// tenanted config), so dashboards can predeclare them.
		"aida_server_tenant_requests_total",
		"aida_server_tenant_throttled_total",
		"aida_server_tenant_in_flight",
	} {
		if !strings.Contains(prom, metric) {
			t.Errorf("prometheus output missing %s", metric)
		}
	}
}

// TestStatsWireContract pins the /v1/stats keys clients decode: the top
// level is exactly server and kb (a serving System has no relatedness
// engine, so no engine object and no aida_engine_* family), the kb object
// carries entities and generation, and the removed engine-snapshot
// endpoint answers 404.
func TestStatsWireContract(t *testing.T) {
	k, _ := testWorld(t, 1)
	_, ts := newTestServer(t, k, Config{})
	var st map[string]map[string]json.RawMessage
	if err := json.Unmarshal(readAll(t, mustGet(t, ts.URL+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(st)), []string{"kb", "server"}; !slices.Equal(got, want) {
		t.Errorf("top-level keys = %v, want %v", got, want)
	}
	for _, key := range []string{"entities", "generation"} {
		if _, ok := st["kb"][key]; !ok {
			t.Errorf("kb object lacks %q: %v", key, slices.Sorted(maps.Keys(st["kb"])))
		}
	}
	if prom := string(readAll(t, mustGet(t, ts.URL+"/v1/stats?format=prometheus"))); strings.Contains(prom, "aida_engine_") {
		t.Errorf("prometheus output still carries an aida_engine_* family:\n%s", prom)
	}

	snap, err := http.Post(ts.URL+"/v1/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, snap)
	if snap.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/admin/snapshot: status %d, want 404", snap.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	k, _ := testWorld(t, 1)
	_, ts := newTestServer(t, k, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(readAll(t, resp), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Entities != k.NumEntities() {
		t.Errorf("health = %+v", h)
	}
}

// TestPerRequestMethod checks the "method" request field: the response
// must match an in-process system running that method, the default stays
// the server's method, and unknown names are a 400.
func TestPerRequestMethod(t *testing.T) {
	k, docs := testWorld(t, 3)
	_, ts := newTestServer(t, k, Config{})

	prior, err := aida.MethodByName("prior")
	if err != nil {
		t.Fatal(err)
	}
	priorSys := aida.New(k, aida.WithMethod(prior), aida.WithMaxCandidates(10))
	for _, doc := range docs {
		resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: doc, RequestSpec: aida.RequestSpec{Method: "PRIOR"}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var got struct {
			Annotations json.RawMessage `json:"annotations"`
		}
		if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
			t.Fatal(err)
		}
		if want := expectedWire(t, priorSys, doc); !bytes.Equal(got.Annotations, want) {
			t.Errorf("method=PRIOR diverges from an in-process prior system:\n got %s\nwant %s", got.Annotations, want)
		}
	}

	// The per-request override must not stick to the shared system.
	resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: docs[0]})
	var got struct {
		Annotations json.RawMessage `json:"annotations"`
	}
	if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	if want := expectedWire(t, aida.New(k, aida.WithMaxCandidates(10)), docs[0]); !bytes.Equal(got.Annotations, want) {
		t.Error("default method changed after a per-request override")
	}

	// Batch accepts the same field.
	bresp := postJSON(t, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs[:1], RequestSpec: aida.RequestSpec{Method: "prior"}})
	var bgot struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(readAll(t, bresp), &bgot); err != nil {
		t.Fatal(err)
	}
	if want := expectedWire(t, priorSys, docs[0]); len(bgot.Results) != 1 || !bytes.Equal(bgot.Results[0], want) {
		t.Error("batch method=prior diverges from an in-process prior system")
	}

	for _, body := range []any{
		annotateRequest{Text: docs[0], RequestSpec: aida.RequestSpec{Method: "bogus"}},
		batchRequest{Docs: docs[:1], RequestSpec: aida.RequestSpec{Method: "bogus"}},
	} {
		url := ts.URL + "/v1/annotate"
		if _, ok := body.(batchRequest); ok {
			url += "/batch"
		}
		resp := postJSON(t, url, body)
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown method: status %d (body %s), want 400", resp.StatusCode, b)
		}
	}
}

// TestCanceledContextAbortsEveryEndpoint drives each /v1/* endpoint (and
// /healthz) with an already-canceled request context: every handler must
// abort without writing a response body and the canceled-request counter
// must move once per request. This is the deterministic half of the
// client-disconnect verification; TestClientDisconnectCancelsBatch covers
// the real-socket half.
func TestCanceledContextAbortsEveryEndpoint(t *testing.T) {
	k, docs := testWorld(t, 2)
	sys := aida.New(k, aida.WithMaxCandidates(10))
	srv := New(sys, Config{Logger: quietLogger()})
	h := srv.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	requests := []*http.Request{
		httptest.NewRequest("POST", "/v1/annotate", bytes.NewReader(mustJSON(t, annotateRequest{Text: docs[0]}))),
		httptest.NewRequest("POST", "/v1/annotate/batch", bytes.NewReader(mustJSON(t, batchRequest{Docs: docs}))),
		httptest.NewRequest("POST", "/v1/annotate/batch?stream=1", bytes.NewReader(mustJSON(t, batchRequest{Docs: docs}))),
		httptest.NewRequest("GET", "/v1/relatedness?kind=MW&a=0&b=1", nil),
		httptest.NewRequest("GET", "/v1/stats", nil),
		httptest.NewRequest("GET", "/healthz", nil),
	}
	for i, req := range requests {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.WithContext(ctx))
		if got := srv.canceled.Load(); got != int64(i+1) {
			t.Fatalf("%s %s: canceled counter = %d, want %d", req.Method, req.URL, got, i+1)
		}
	}
	if docsDone := srv.documents.Load(); docsDone != 0 {
		t.Errorf("%d documents annotated despite canceled contexts", docsDone)
	}

	// The canceled path must be visible in both stats renderings.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Canceled != int64(len(requests)) {
		t.Errorf("stats canceled = %d, want %d", st.Server.Canceled, len(requests))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats?format=prometheus", nil))
	if want := fmt.Sprintf("aida_server_requests_canceled_total %d", len(requests)); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("prometheus output missing %q", want)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClientDisconnectCancelsBatch is the real-socket disconnect test: a
// client starts a large NDJSON batch, reads one line and hangs up. The
// server must observe the vanished client through the request context,
// abort the in-flight scoring, and count the cancellation.
func TestClientDisconnectCancelsBatch(t *testing.T) {
	k, docs := testWorld(t, 4)
	_, ts := newTestServer(t, k, Config{MaxBatchDocs: 4096})

	// A batch big enough that it cannot complete while we hang up.
	big := make([]string, 2000)
	for i := range big {
		big[i] = docs[i%len(docs)]
	}
	body := mustJSON(t, batchRequest{Docs: big, RequestSpec: aida.RequestSpec{Parallelism: 1}})
	req, err := http.NewRequest("POST", ts.URL+"/v1/annotate/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read one streamed line, then hang up mid-batch.
	buf := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The server notices the disconnect on its next write or ctx check;
	// poll the stats endpoint until the cancellation is recorded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		statsResp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st statsResponse
		if err := json.Unmarshal(readAll(t, statsResp), &st); err != nil {
			t.Fatal(err)
		}
		if st.Server.Canceled >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never moved after client disconnect; stats = %+v", st.Server)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentBatchRequests hammers one System through the HTTP
// layer from many clients at once; under -race this is the service-level
// race test, and every response must still match the sequential bytes.
func TestConcurrentBatchRequests(t *testing.T) {
	k, docs := testWorld(t, 6)
	_, ts := newTestServer(t, k, Config{})

	seq := aida.New(k, aida.WithMaxCandidates(10))
	want := make([][]byte, len(docs))
	for i, d := range docs {
		want[i] = expectedWire(t, seq, d)
	}

	body, err := json.Marshal(batchRequest{Docs: docs, RequestSpec: aida.RequestSpec{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	// Only t.Fatal-free code below: FailNow must not be called from a
	// non-test goroutine, so all failures go through the errs channel.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/annotate/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- fmt.Sprintf("client %d: %v", c, err)
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Sprintf("client %d: %v", c, err)
				return
			}
			var got struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(data, &got); err != nil {
				errs <- fmt.Sprintf("client %d: %v", c, err)
				return
			}
			for i, raw := range got.Results {
				if !bytes.Equal(raw, want[i]) {
					errs <- fmt.Sprintf("client %d doc %d: bytes diverge", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkServerAnnotate tracks the HTTP overhead and batch scaling over
// a warm KB: one document per request vs the batch endpoint.
func BenchmarkServerAnnotate(b *testing.B) {
	k, docs := testWorld(b, 16)
	_, ts := newTestServer(b, k, Config{})
	warm := func() {
		readAll(b, postJSON(b, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs}))
	}

	b.Run("single", func(b *testing.B) {
		warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readAll(b, postJSON(b, ts.URL+"/v1/annotate", annotateRequest{Text: docs[i%len(docs)]}))
		}
	})
	b.Run("batch", func(b *testing.B) {
		warm()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readAll(b, postJSON(b, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs}))
		}
	})
}
