package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aida"
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

// TestDeltaJournalOrderAcrossAppliers races two admin appliers against one
// journal for several rounds and requires that replaying the journal
// rebuilds the serving store. A delta built on a generation that a racing
// apply already replaced is rejected with 400 and rebuilt; whatever order
// the applies land in, the journal must list them in that order.
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
	// 400 means the racing applier took the generation it was built on.
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

	const rounds = 8
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, who := range []string{"Left", "Right"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				adminApply(fmt.Sprintf("%s Works %d", who, round))
			}()
		}
		wg.Wait()
	}
	if got := sys.Generation(); got != 2*rounds {
		t.Fatalf("serving generation %d, want %d", got, 2*rounds)
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
