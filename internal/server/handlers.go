package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"aida"
	"aida/internal/kb"
	"aida/internal/pool"
)

// Annotation is the wire form of one aida.Annotation. Entity is -1 when
// the mention is out-of-KB (aida.NoEntity).
type Annotation struct {
	Text   string        `json:"text"`
	Start  int           `json:"start"`
	End    int           `json:"end"`
	Entity aida.EntityID `json:"entity"`
	Label  string        `json:"label"`
	Score  float64       `json:"score"`
}

// wireAnnotations converts pipeline output to the wire form. Both the
// single and the batch endpoint go through here, which is what makes
// batch responses byte-identical to N single responses.
func wireAnnotations(anns []aida.Annotation) []Annotation {
	return appendWireAnnotations(make([]Annotation, 0, len(anns)), anns)
}

// appendWireAnnotations is wireAnnotations into a caller-owned slice, so
// the NDJSON stream can reuse one wire buffer across lines.
func appendWireAnnotations(dst []Annotation, anns []aida.Annotation) []Annotation {
	for _, a := range anns {
		dst = append(dst, Annotation{
			Text:   a.Mention.Text,
			Start:  a.Mention.Start,
			End:    a.Mention.End,
			Entity: a.Entity,
			Label:  a.Label,
			Score:  a.Score,
		})
	}
	return dst
}

// annotateRequest is the body of POST /v1/annotate: the document text plus
// the embedded aida.RequestSpec — every per-request knob (method,
// parallelism, candidate cap, includes, context, domain, request id)
// decodes straight into the spec under the JSON names documented in
// docs/API.md, with no per-field parsing in the handler. Validation
// happens in the aida package's option resolution, so an invalid field
// fails with exactly the error text a Go caller would see.
type annotateRequest struct {
	Text string `json:"text"`
	aida.RequestSpec
}

type annotateResponse struct {
	Annotations []Annotation `json:"annotations"`
	// Candidates holds, per mention, the scored candidate list (the
	// "candidates" request field; also implied by ?format=html).
	Candidates [][]wireCandidate `json:"candidates,omitempty"`
	// Confidence holds the per-mention CONF confidence scores (the
	// "confidence" request field).
	Confidence []float64      `json:"confidence,omitempty"`
	Stats      *annotateStats `json:"stats,omitempty"`
}

// wireCandidate is the wire form of one aida.RankedCandidate.
type wireCandidate struct {
	Entity aida.EntityID `json:"entity"`
	Label  string        `json:"label"`
	Prior  float64       `json:"prior"`
	Score  float64       `json:"score"`
}

// annotateStats is the wire form of aida.Stats plus the trace id, so a
// logged slow request and its response are attributable to each other.
type annotateStats struct {
	Comparisons   int    `json:"comparisons"`
	GraphEntities int    `json:"graph_entities"`
	RequestID     string `json:"request_id,omitempty"`
}

// writeAnnotateError maps an annotation or relatedness error onto the
// wire: request mistakes (aida.InvalidRequestError — unknown method or domain, negative
// parallelism, oversized context, conflicting options) are the client's
// 400 with the resolution error's exact text, cancellations are accounted
// as 499, anything else (a failed remote shard) is a 500.
func (s *Server) writeAnnotateError(w http.ResponseWriter, r *http.Request, err error) {
	var bad *aida.InvalidRequestError
	if errors.As(err, &bad) {
		writeError(w, http.StatusBadRequest, bad.Error())
		return
	}
	if !s.noteCanceled(w, r, err) {
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req annotateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// A single document has no fan-out to bound, but the clamp applies
	// here too so that /v1/annotate accepts exactly the values the batch
	// endpoint accepts (above MaxParallelism included). Negative values
	// pass through to resolution and fail with 400.
	req.Parallelism = clampParallelism(req.Parallelism)
	asHTML := wantsHTML(r)
	if asHTML {
		// The HTML span titles carry the candidate ranking.
		req.Candidates = true
	}
	if req.Stats {
		// The work counters are stamped with the trace id the middleware
		// assigned, overriding any body-supplied id: response headers,
		// log line and stats must agree.
		req.RequestID = requestID(r.Context())
	}
	doc, err := s.sys.AnnotateDoc(r.Context(), req.Text, req.RequestSpec.Options()...)
	if err != nil {
		s.writeAnnotateError(w, r, err)
		return
	}
	s.documents.Add(1)
	if asHTML {
		var buf bytes.Buffer
		renderAnnotatedHTML(&buf, req.Text, doc)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(buf.Bytes())
		return
	}
	resp := annotateResponse{Annotations: wireAnnotations(doc.Annotations)}
	if doc.Candidates != nil {
		resp.Candidates = make([][]wireCandidate, len(doc.Candidates))
		for i, cands := range doc.Candidates {
			wc := make([]wireCandidate, len(cands))
			for j, c := range cands {
				wc[j] = wireCandidate{Entity: c.Entity, Label: c.Label, Prior: c.Prior, Score: c.Score}
			}
			resp.Candidates[i] = wc
		}
	}
	resp.Confidence = doc.Confidence
	if doc.Stats != nil {
		resp.Stats = &annotateStats{
			Comparisons:   doc.Stats.Comparisons,
			GraphEntities: doc.Stats.GraphEntities,
			RequestID:     doc.Stats.RequestID,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchRequest is the body of POST /v1/annotate/batch: the documents plus
// the embedded aida.RequestSpec, decoded exactly like /v1/annotate. Batch
// responses carry annotations only, so the per-mention include fields
// (candidates, confidence, stats) are rejected with 400, and so are given
// mentions, which belong to one document.
type batchRequest struct {
	Docs []string `json:"docs"`
	aida.RequestSpec
}

type batchResponse struct {
	Results [][]Annotation `json:"results"`
}

// batchLine is one NDJSON stream element: the annotations of document
// Index. Lines are emitted strictly in input order.
type batchLine struct {
	Index       int          `json:"index"`
	Annotations []Annotation `json:"annotations"`
}

// ndjsonScratch is the per-stream encode state: one line buffer and one
// wire-annotation slice, recycled across lines and across requests.
type ndjsonScratch struct {
	buf  bytes.Buffer
	wire []Annotation
}

var ndjsonBufs = pool.Scratch[ndjsonScratch]{
	New: func() *ndjsonScratch { return &ndjsonScratch{} },
	// Drop string references so a pooled scratch cannot pin a finished
	// response's text in memory.
	Reset: func(sc *ndjsonScratch) {
		sc.buf.Reset()
		clear(sc.wire)
		sc.wire = sc.wire[:0]
	},
}

func (s *Server) handleAnnotateBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: docs must contain at least one document")
		return
	}
	if len(req.Docs) > s.cfg.MaxBatchDocs {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d documents exceeds the limit of %d", len(req.Docs), s.cfg.MaxBatchDocs))
		return
	}
	if req.Candidates || req.Confidence != nil || req.Stats {
		writeError(w, http.StatusBadRequest,
			"batch responses carry annotations only: request candidates, confidence or stats via /v1/annotate")
		return
	}
	if req.Mentions != nil {
		writeError(w, http.StatusBadRequest, "mentions belong to one document: send them to /v1/annotate")
		return
	}
	req.Parallelism = clampParallelism(req.Parallelism)
	// Pre-validate before any write: the NDJSON branch commits a 200
	// header when the stream starts, so a bad method, domain or context
	// must be caught here to get its proper 400.
	if err := s.sys.ValidateRequest(&req.RequestSpec); err != nil {
		s.writeAnnotateError(w, r, err)
		return
	}
	opts := req.RequestSpec.Options()

	if wantsNDJSON(r) {
		// Stream one line per document as soon as it and its
		// predecessors are annotated; memory stays bounded by the worker
		// count instead of the batch size. A client disconnect cancels
		// r.Context(), which aborts the in-flight scoring workers.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		// Encode each line into a pooled scratch buffer and reuse one wire
		// slice across lines, so a long stream's per-line heap cost is the
		// line bytes written, not fresh encoder and annotation buffers.
		sc := ndjsonBufs.Get()
		defer ndjsonBufs.Put(sc)
		enc := json.NewEncoder(&sc.buf)
		for doc, err := range s.sys.AnnotateStream(r.Context(), slices.Values(req.Docs), opts...) {
			if err != nil {
				s.noteCanceled(w, r, err)
				return
			}
			s.documents.Add(1)
			sc.buf.Reset()
			sc.wire = appendWireAnnotations(sc.wire[:0], doc.Annotations)
			if err := enc.Encode(batchLine{Index: doc.Index, Annotations: sc.wire}); err != nil {
				return // marshal failure; nothing sensible to stream
			}
			if _, err := w.Write(sc.buf.Bytes()); err != nil {
				// Client went away mid-stream; the stream's workers stop
				// with us. Count the disconnect if the context confirms it.
				if cerr := r.Context().Err(); cerr != nil {
					s.noteCanceled(w, r, cerr)
				}
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}

	docs, err := s.sys.AnnotateCorpus(r.Context(), req.Docs, opts...)
	if err != nil {
		s.writeAnnotateError(w, r, err)
		return
	}
	results := make([][]Annotation, len(docs))
	for i, doc := range docs {
		results[i] = wireAnnotations(doc.Annotations)
	}
	s.documents.Add(int64(len(req.Docs)))
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// wantsNDJSON reports whether the client asked for a streaming NDJSON
// batch response, via ?stream=1 or an Accept header preferring
// application/x-ndjson over application/json. The media ranges are
// negotiated with their q-values — "application/x-ndjson;q=0" is an
// explicit opt-out, and a header that merely mentions the type among
// preferred others does not force streaming.
func wantsNDJSON(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true", "ndjson":
		return true
	}
	return negotiateAccept(r.Header.Get("Accept"),
		"application/json", "application/x-ndjson") == "application/x-ndjson"
}

type relatednessResponse struct {
	Kind        string        `json:"kind"`
	A           aida.EntityID `json:"a"`
	B           aida.EntityID `json:"b"`
	Relatedness float64       `json:"relatedness"`
}

// clientGone reports whether the request was already abandoned by its
// client (the request context is canceled). The cheap endpoints check it
// on entry so an aborted request is counted as canceled instead of being
// served into the void; the annotation endpoints get the same check from
// AnnotateDoc/AnnotateCorpus/AnnotateStream.
func (s *Server) clientGone(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		s.noteCanceled(w, r, err)
		return true
	}
	return false
}

func (s *Server) handleRelatedness(w http.ResponseWriter, r *http.Request) {
	if s.clientGone(w, r) {
		return
	}
	q := r.URL.Query()
	kind, err := aida.ParseRelatednessKind(q.Get("kind"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	a, err := s.entityParam(q.Get("a"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "a: "+err.Error())
		return
	}
	b, err := s.entityParam(q.Get("b"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "b: "+err.Error())
		return
	}
	v, err := s.sys.Relatedness(kind, a, b)
	if err != nil {
		s.writeAnnotateError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, relatednessResponse{Kind: kind.String(), A: a, B: b, Relatedness: v})
}

// entityParam parses an entity id query parameter and range-checks it
// against the serving KB generation (entities a delta adds are addressable
// as soon as it applies).
func (s *Server) entityParam(raw string) (aida.EntityID, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing entity id")
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid entity id %q", raw)
	}
	if n := s.sys.Store().NumEntities(); id < 0 || id >= n {
		return 0, fmt.Errorf("entity id %d out of range [0,%d)", id, n)
	}
	return aida.EntityID(id), nil
}

// statsResponse is the JSON shape of GET /v1/stats.
type statsResponse struct {
	Server serverStats `json:"server"`
	KB     kbStats     `json:"kb"`
}

type serverStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Documents     int64   `json:"documents"`
	// Canceled counts requests abandoned mid-flight because the client
	// disconnected (the new cancellation path).
	Canceled int64 `json:"canceled"`
	// RequestsByEndpoint breaks Requests down per routed path (unrouted
	// paths — 404s — are only in the total).
	RequestsByEndpoint map[string]int64 `json:"requests_by_endpoint"`
	// LatencyByEndpoint is the request-duration histogram per routed
	// path (endpoints with no traffic yet are omitted).
	LatencyByEndpoint map[string]latencyStats `json:"latency_by_endpoint"`
	// Tenants holds the per-tenant admission counters and effective
	// limits, keyed by tenant name (omitted on an open server).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

type kbStats struct {
	Entities int `json:"entities"`
	// Shards is the knowledge base's shard placement: 1 for a single KB,
	// N under the -shards flag of cmd/aidaserver or behind an N-wide
	// fleet.
	Shards int `json:"shards"`
	// RemoteShards is the width of the remote shard fleet behind this
	// server (the -shard-map flag of cmd/aidaserver); 0 when the KB is
	// hosted in-process.
	RemoteShards int `json:"remote_shards"`
	// RemoteRequests/Hedges/Retries/Failovers are the remote store's fetch
	// counters: logical store operations sent to the fleet, speculative
	// duplicates launched past the hedge threshold, error-triggered
	// re-attempts, and operations served by a non-primary endpoint after
	// the primary failed. All 0 when the KB is hosted in-process.
	RemoteRequests  int64 `json:"remote_requests"`
	RemoteHedges    int64 `json:"remote_hedges"`
	RemoteRetries   int64 `json:"remote_retries"`
	RemoteFailovers int64 `json:"remote_failovers"`
	// Generation is the serving KB generation (0 = as loaded; +1 per
	// applied live delta), and the Delta counters total what live
	// updates added since boot. See aida.KBLiveStats.
	Generation    uint64 `json:"generation"`
	DeltaApplies  uint64 `json:"delta_applies"`
	DeltaEntities uint64 `json:"delta_entities"`
	DeltaRows     uint64 `json:"delta_rows"`
}

func (s *Server) statsSnapshot() statsResponse {
	byEndpoint := make(map[string]int64, len(endpoints))
	byLatency := make(map[string]latencyStats, len(endpoints))
	for _, e := range endpoints {
		byEndpoint[e] = s.byEndpoint[e].Load()
		if ls := s.byLatency[e].snapshot(); ls.Count > 0 {
			byLatency[e] = ls
		}
	}
	// One consistent generation snapshot: the store and live counters
	// reported below describe the same generation even if a delta applies
	// mid-request.
	lv := s.sys.Live()
	kbs := kbStats{
		Entities:      lv.Store.NumEntities(),
		Shards:        lv.Store.NumShards(),
		Generation:    lv.Stats.Generation,
		DeltaApplies:  lv.Stats.DeltaApplies,
		DeltaEntities: lv.Stats.DeltaEntities,
		DeltaRows:     lv.Stats.DeltaRows,
	}
	if r, ok := s.sys.KB.(*kb.RemoteStore); ok {
		rs := r.Stats()
		kbs.RemoteShards = rs.Shards
		kbs.RemoteRequests = rs.Requests
		kbs.RemoteHedges = rs.Hedges
		kbs.RemoteRetries = rs.Retries
		kbs.RemoteFailovers = rs.Failovers
	}
	srv := serverStats{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Requests:           s.requests.Load(),
		Documents:          s.documents.Load(),
		Canceled:           s.canceled.Load(),
		RequestsByEndpoint: byEndpoint,
		LatencyByEndpoint:  byLatency,
	}
	if s.cfg.Tenants != nil {
		srv.Tenants = s.cfg.Tenants.Stats()
	}
	return statsResponse{
		Server: srv,
		KB:     kbs,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.clientGone(w, r) {
		return
	}
	if wantsPrometheus(r) {
		s.writeMetrics(w)
		return
	}
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// wantsPrometheus reports whether the client asked for the Prometheus text
// exposition, via ?format=prometheus or an Accept header preferring
// text/plain over application/json; ?format=json forces JSON. A header
// that merely mentions text/plain at a lower preference — e.g.
// "application/json, text/plain;q=0.1" — gets JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	return negotiateAccept(r.Header.Get("Accept"),
		"application/json", "text/plain") == "text/plain"
}

type healthResponse struct {
	Status   string `json:"status"`
	Entities int    `json:"entities"`
	// Generation is the serving KB generation (0 = as loaded).
	Generation uint64 `json:"generation"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.clientGone(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Entities:   s.sys.Store().NumEntities(),
		Generation: s.sys.Generation(),
	})
}
