package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aida"
	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/kb/live"
)

// testDelta builds a valid one-entity delta against k: a new entity whose
// keyphrase features are borrowed from an existing one (so all vocabulary
// already carries base IDF weights), linked both ways to it, with a
// dictionary row for the new name.
func testDelta(k aida.Store) *kb.Delta { return namedDelta(k, "Zorvex Dynamics") }

func namedDelta(k aida.Store, name string) *kb.Delta {
	src := k.Entity(5)
	base := kb.EntityID(k.NumEntities())
	ne := kb.NewEntity{Name: name, Domain: "emerging", Types: []string{"emerging"}}
	n := len(src.Keyphrases)
	if n > 4 {
		n = 4
	}
	ne.Keyphrases = append(ne.Keyphrases, src.Keyphrases[:n]...)
	return &kb.Delta{
		BaseEntities: k.NumEntities(),
		Entities:     []kb.NewEntity{ne},
		Links:        []kb.LinkAddition{{Src: base, Dst: 5}, {Src: 5, Dst: base}},
		Rows:         []kb.RowAddition{{Surface: name, Entity: base, Count: 3}},
	}
}

// TestDeltaEndpoint exercises the live-update surface end to end: apply
// over HTTP, immediate linkability of the new entity, rejection of a
// stale delta, generation counters in healthz/stats/metrics, and journal
// replay reproducing the serving store.
func TestDeltaEndpoint(t *testing.T) {
	k, _ := testWorld(t, 1)
	journalPath := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := live.OpenJournal(journalPath)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	sys, ts := newTestServer(t, k, Config{DeltaJournal: j})

	d := testDelta(k)
	resp := postJSON(t, ts.URL+"/v1/admin/kb/delta", d)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var dr deltaResponse
	if err := json.Unmarshal(readAll(t, resp), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Generation != 1 || dr.Entities != 1 || dr.Rows != 1 || dr.Links != 2 || !dr.Journaled {
		t.Fatalf("unexpected delta response: %+v", dr)
	}
	if dr.KBEntities != k.NumEntities()+1 {
		t.Fatalf("KBEntities = %d, want %d", dr.KBEntities, k.NumEntities()+1)
	}

	// The very next annotation request links the new entity by name.
	wantID, ok := sys.Store().EntityByName("Zorvex Dynamics")
	if !ok {
		t.Fatal("applied entity not resolvable by name")
	}
	resp = postJSON(t, ts.URL+"/v1/annotate", annotateRequest{
		Text: "Quarterly reports about Zorvex Dynamics circulated widely today.",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("annotate status %d", resp.StatusCode)
	}
	var got struct {
		Annotations []Annotation `json:"annotations"`
	}
	if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	linked := false
	for _, a := range got.Annotations {
		if strings.Contains(a.Text, "Zorvex Dynamics") && a.Entity == wantID {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("new entity not linked over HTTP; annotations: %+v", got.Annotations)
	}

	// A delta built against generation 0 no longer validates.
	resp = postJSON(t, ts.URL+"/v1/admin/kb/delta", d)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale delta status %d, want 400", resp.StatusCode)
	}
	if body := string(readAll(t, resp)); !strings.Contains(body, "delta rejected") {
		t.Fatalf("stale delta body: %s", body)
	}

	// healthz reports the serving generation.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.Unmarshal(readAll(t, hresp), &h); err != nil {
		t.Fatal(err)
	}
	if h.Generation != 1 || h.Entities != k.NumEntities()+1 {
		t.Fatalf("healthz = %+v", h)
	}

	// /v1/stats carries the generation counters and per-endpoint latency.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(readAll(t, sresp), &st); err != nil {
		t.Fatal(err)
	}
	if st.KB.Generation != 1 || st.KB.DeltaApplies != 1 || st.KB.DeltaEntities != 1 || st.KB.DeltaRows != 1 {
		t.Fatalf("stats KB counters: %+v", st.KB)
	}
	ls, ok := st.Server.LatencyByEndpoint["/v1/annotate"]
	if !ok || ls.Count < 1 {
		t.Fatalf("latency_by_endpoint missing annotate traffic: %+v", st.Server.LatencyByEndpoint)
	}
	if ls.Buckets["+Inf"] != ls.Count {
		t.Fatalf("histogram not cumulative: +Inf bucket %d != count %d", ls.Buckets["+Inf"], ls.Count)
	}
	if _, ok := st.Server.LatencyByEndpoint["/v1/store"]; ok {
		t.Error("zero-traffic endpoint present in latency_by_endpoint")
	}

	// The Prometheus rendering exposes the same counters.
	presp, err := http.Get(ts.URL + "/v1/stats?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, presp))
	for _, want := range []string{
		"aida_kb_generation 1",
		"aida_kb_delta_applies_total 1",
		"aida_kb_delta_entities_total 1",
		"aida_kb_delta_rows_total 1",
		`aida_server_request_seconds_bucket{endpoint="/v1/annotate",le="+Inf"}`,
		`aida_server_request_seconds_count{endpoint="/v1/annotate"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Replaying the journal into a fresh system reproduces the serving
	// store exactly.
	sys2 := aida.New(k)
	n, truncated, err := live.ReplayJournal(journalPath, func(d *kb.Delta) error {
		_, err := sys2.ApplyDelta(d)
		return err
	})
	if err != nil || truncated || n != 1 {
		t.Fatalf("ReplayJournal = (%d, %v, %v), want (1, false, nil)", n, truncated, err)
	}
	if sys2.Store().Fingerprint() != sys.Store().Fingerprint() {
		t.Fatal("journal replay did not reproduce the serving fingerprint")
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestDeltaJournalOrderAcrossAppliers runs the two appliers of one server —
// the admin endpoint and the graduation loop — against one journal and
// requires that replaying it rebuilds the serving store. The first round
// forces the interleaving that used to lose deltas: the loop's "graduated"
// log line, written once its apply is visible, triggers an admin apply on
// top of the new generation; the journal must still list the graduation
// first. The later rounds race the two appliers freely.
func TestDeltaJournalOrderAcrossAppliers(t *testing.T) {
	k, _ := testWorld(t, 1)
	journalPath := filepath.Join(t.TempDir(), "deltas.journal")
	j, err := live.OpenJournal(journalPath)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	sys, ts := newTestServer(t, k, Config{DeltaJournal: j})

	// adminApply posts a delta built on the serving store until it lands: a
	// 400 means a racing graduation took the generation it was built on.
	adminApply := func(name string) {
		for try := 0; try < 100; try++ {
			b, _ := json.Marshal(namedDelta(sys.Store(), name))
			resp, err := http.Post(ts.URL+"/v1/admin/kb/delta", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Errorf("admin apply %q: %v", name, err)
				return
			}
			var dr deltaResponse
			err = json.NewDecoder(resp.Body).Decode(&dr)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusBadRequest:
				continue
			case resp.StatusCode != http.StatusOK || err != nil || !dr.Journaled:
				t.Errorf("admin apply %q: status %d, body %+v, err %v", name, resp.StatusCode, dr, err)
			}
			return
		}
		t.Errorf("admin apply %q never landed", name)
	}

	g := live.NewGraduator()
	// observe gives a surface the evidence graduation requires: three
	// emerging observations of a three-keyphrase placeholder model.
	observe := func(surface string) {
		model := disambig.Candidate{Entity: kb.NoEntity, Label: surface + "_EE", Keyphrases: k.Entity(7).Keyphrases[:3]}
		for range 3 {
			g.Observe(&emerge.Discovery{
				Output:   &disambig.Output{Results: []disambig.Result{{Surface: surface, CandidateIndex: -1, Entity: kb.NoEntity}}},
				Emerging: []bool{true},
				Models:   map[string]disambig.Candidate{surface: model},
			})
		}
	}
	forced := false
	loop := &live.Loop{System: sys, Graduator: g, Journal: j,
		Logger: log.New(writerFunc(func(p []byte) (int, error) {
			if !forced && strings.Contains(string(p), "graduated") {
				forced = true
				adminApply("Forced Admin Works")
			}
			return len(p), nil
		}), "", 0)}

	observe("Forced Emerging Works")
	if _, applied, err := loop.RunOnce(context.Background()); err != nil || !applied {
		t.Fatalf("forced round: RunOnce = (%v, %v), want an apply", applied, err)
	}
	if !forced || sys.Generation() != 2 {
		t.Fatalf("forced round: admin apply ran %v, generation %d, want true and 2", forced, sys.Generation())
	}

	for round := 0; round < 8; round++ {
		observe(fmt.Sprintf("Emerging Works %d", round))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// A graduation that loses the race is rejected as stale and its
			// evidence is spent; only what was applied must be journaled.
			loop.RunOnce(context.Background())
		}()
		go func() {
			defer wg.Done()
			adminApply(fmt.Sprintf("Admin Works %d", round))
		}()
		wg.Wait()
	}

	sys2 := aida.New(k)
	n, truncated, err := live.ReplayJournal(journalPath, func(d *kb.Delta) error {
		_, err := sys2.ApplyDelta(d)
		return err
	})
	if err != nil || truncated {
		t.Fatalf("ReplayJournal stopped after %d deltas: truncated %v, err %v", n, truncated, err)
	}
	if uint64(n) != sys.Generation() || sys2.Generation() != sys.Generation() {
		t.Fatalf("replayed %d deltas to generation %d, serving generation %d", n, sys2.Generation(), sys.Generation())
	}
	if sys2.Store().Fingerprint() != sys.Store().Fingerprint() {
		t.Fatal("journal replay did not reproduce the serving fingerprint")
	}
}

// TestDeltaEndpointRejectsMalformed pins the failure modes: a body that is
// not JSON and a delta that fails validation are both 400s, and neither
// moves the generation.
func TestDeltaEndpointRejectsMalformed(t *testing.T) {
	k, _ := testWorld(t, 1)
	sys, ts := newTestServer(t, k, Config{})

	resp, err := http.Post(ts.URL+"/v1/admin/kb/delta", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)

	bad := testDelta(k)
	bad.Entities[0].Name = k.Entity(0).Name // collides with the base
	resp = postJSON(t, ts.URL+"/v1/admin/kb/delta", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid delta status %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)

	if got := sys.Generation(); got != 0 {
		t.Fatalf("generation moved to %d on rejected deltas", got)
	}
}

// TestOnDocumentHook verifies the annotate endpoints feed the graduation
// loop's Note hook with the document text and its annotations.
func TestOnDocumentHook(t *testing.T) {
	k, docs := testWorld(t, 2)
	var mu sync.Mutex
	var texts []string
	var counts []int
	hook := func(text string, anns []aida.Annotation) {
		mu.Lock()
		defer mu.Unlock()
		texts = append(texts, text)
		counts = append(counts, len(anns))
	}
	_, ts := newTestServer(t, k, Config{OnDocument: hook})

	resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: docs[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readAll(t, resp)
	mu.Lock()
	if len(texts) != 1 || texts[0] != docs[0] || counts[0] == 0 {
		t.Fatalf("hook saw texts=%d counts=%v", len(texts), counts)
	}
	mu.Unlock()

	resp = postJSON(t, ts.URL+"/v1/annotate/batch", batchRequest{Docs: docs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	readAll(t, resp)
	mu.Lock()
	defer mu.Unlock()
	if len(texts) != 1+len(docs) {
		t.Fatalf("hook saw %d documents after batch, want %d", len(texts), 1+len(docs))
	}
}
