package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"aida"
	"aida/internal/kb"
	"aida/internal/kbtest"
)

// TestRemoteBackedServer pins the full production topology: an annotation
// front-end whose KB is a remote shard fleet must answer /v1/annotate and
// /v1/relatedness with exactly the bytes a local-KB server produces, and
// /v1/stats must expose the fleet's fetch counters.
func TestRemoteBackedServer(t *testing.T) {
	k, docs := testWorld(t, 3)
	fleet := kbtest.StartFleet(t, k, 2, 2)
	remote := fleet.Dial(t, kb.RemoteOptions{})

	_, localTS := newTestServer(t, k, Config{})
	_, remoteTS := newTestServer(t, remote, Config{})

	for _, doc := range docs {
		want := readAll(t, postJSON(t, localTS.URL+"/v1/annotate", annotateRequest{Text: doc}))
		got := readAll(t, postJSON(t, remoteTS.URL+"/v1/annotate", annotateRequest{Text: doc}))
		if !bytes.Equal(got, want) {
			t.Fatalf("remote-backed /v1/annotate diverges from local:\n got %s\nwant %s", got, want)
		}
	}
	for _, kind := range []aida.RelatednessKind{aida.MW, aida.KWCS, aida.KPCS, aida.KORE, aida.KORELSHG, aida.KORELSHF} {
		for _, pair := range []string{"a=3&b=7", "a=7&b=3", "a=5&b=5"} {
			query := fmt.Sprintf("/v1/relatedness?kind=%s&%s", kind, pair)
			want := readAll(t, mustGet(t, localTS.URL+query))
			if got := readAll(t, mustGet(t, remoteTS.URL+query)); !bytes.Equal(got, want) {
				t.Fatalf("remote-backed %s diverges from local:\n got %s\nwant %s", query, got, want)
			}
		}
	}

	resp, err := http.Get(remoteTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.KB.RemoteShards != 2 {
		t.Fatalf("kb.remote_shards = %d, want 2", st.KB.RemoteShards)
	}
	if st.KB.RemoteRequests == 0 {
		t.Fatal("kb.remote_requests = 0 after annotating through the fleet")
	}

	// A local-KB server reports no fleet.
	resp, err = http.Get(localTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readAll(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.KB.RemoteShards != 0 || st.KB.RemoteRequests != 0 {
		t.Fatalf("local server reports remote KB stats: %+v", st.KB)
	}
}

// TestRelatednessOnDeadFleet: with every replica of every shard failing,
// /v1/relatedness answers the remote store's error as a 500, exactly as
// /v1/annotate does, instead of crashing the handler, and the request is
// counted in /v1/stats.
func TestRelatednessOnDeadFleet(t *testing.T) {
	k, docs := testWorld(t, 1)
	fleet := kbtest.StartFleet(t, k, 2, 2)
	remote := fleet.Dial(t, kb.RemoteOptions{})
	fleet.SetAll(func(int, int) bool { return true }, kbtest.Faults{ErrorEvery: 1})
	sys, ts := newTestServer(t, remote, Config{})

	resp := postJSON(t, ts.URL+"/v1/annotate", annotateRequest{Text: docs[0]})
	if readAll(t, resp); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/v1/annotate on a dead fleet: status %d, want 500", resp.StatusCode)
	}
	var re *aida.RemoteError
	if _, err := sys.Relatedness(aida.MW, 3, 7); !errors.As(err, &re) {
		t.Fatalf("in-process Relatedness on a dead fleet: err %v, want a *RemoteError", err)
	}
	resp = mustGet(t, ts.URL+"/v1/relatedness?kind=MW&a=3&b=7")
	var body errorResponse
	if err := json.Unmarshal(readAll(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.HasPrefix(body.Error, "kb: remote ") || !strings.Contains(body.Error, "failed on all 2 endpoint(s)") {
		t.Fatalf("/v1/relatedness on a dead fleet: status %d, error %q; want 500 with the RemoteError text", resp.StatusCode, body.Error)
	}

	var st statsResponse
	if err := json.Unmarshal(readAll(t, mustGet(t, ts.URL+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if n := st.Server.RequestsByEndpoint["/v1/relatedness"]; n != 1 {
		t.Fatalf("/v1/relatedness counted %d times, want 1", n)
	}
}

// TestRemoteBackedServerFaultCounters asserts the Prometheus exposition of
// the fleet counters: with every shard's primary dead, annotation still
// answers correct bytes and the retry/failover counter families move.
func TestRemoteBackedServerFaultCounters(t *testing.T) {
	k, docs := testWorld(t, 2)
	fleet := kbtest.StartFleet(t, k, 2, 2)
	remote := fleet.Dial(t, kb.RemoteOptions{})
	fleet.SetAll(func(_, rep int) bool { return rep == 0 }, kbtest.Faults{ErrorEvery: 1})

	localSys, _ := newTestServer(t, k, Config{})
	_, remoteTS := newTestServer(t, remote, Config{})

	want := expectedWire(t, localSys, docs[0])
	resp := postJSON(t, remoteTS.URL+"/v1/annotate", annotateRequest{Text: docs[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with dead primaries (replicas should mask)", resp.StatusCode)
	}
	var got struct {
		Annotations json.RawMessage `json:"annotations"`
	}
	if err := json.Unmarshal(readAll(t, resp), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got.Annotations), want) {
		t.Fatalf("annotations diverge under failover:\n got %s\nwant %s", got.Annotations, want)
	}

	metricsResp, err := http.Get(remoteTS.URL + "/v1/stats?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, metricsResp))
	for _, family := range []string{
		"aida_kb_remote_shards",
		"aida_kb_remote_requests_total",
		"aida_kb_remote_hedges_total",
		"aida_kb_remote_retries_total",
		"aida_kb_remote_failovers_total",
	} {
		if !strings.Contains(metrics, "# TYPE "+family+" ") || !strings.Contains(metrics, "\n"+family+" ") {
			t.Fatalf("metrics exposition lacks the %s family:\n%s", family, metrics)
		}
	}
	for _, moving := range []string{"aida_kb_remote_retries_total 0\n", "aida_kb_remote_failovers_total 0\n"} {
		if strings.Contains(metrics, moving) {
			t.Fatalf("counter %q did not move with dead primaries:\n%s", strings.TrimSuffix(moving, " 0\n"), metrics)
		}
	}
}

// TestShardHostMode pins the serving side: a server configured as a shard
// host mounts the KB read surface under /v1/store/, stamps the content
// fingerprint on responses, and counts the traffic under the /v1/store
// endpoint group.
func TestShardHostMode(t *testing.T) {
	k, _ := testWorld(t, 1)
	host, err := kb.NewStoreHost(k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, k, Config{ShardHost: host})

	resp, err := http.Get(ts.URL + kb.StorePathPrefix + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/store/meta: status %d", resp.StatusCode)
	}
	if fp := resp.Header.Get(kb.FingerprintHeader); fp == "" {
		t.Fatal("store response lacks the fingerprint header")
	}

	// And the fleet dials it like any shard host.
	m := kb.ShardMap{Shards: []kb.ShardEndpoints{{Primary: ts.URL}}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := kb.DialFleet(t.Context(), m, kb.RemoteOptions{})
	if err != nil {
		t.Fatalf("DialFleet against the serving front-end: %v", err)
	}
	if r.Fingerprint() != k.Fingerprint() {
		t.Fatalf("fleet fingerprint %016x, want %016x", r.Fingerprint(), k.Fingerprint())
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.Unmarshal(readAll(t, statsResp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.RequestsByEndpoint["/v1/store"] == 0 {
		t.Fatalf("store traffic not counted under /v1/store: %+v", st.Server.RequestsByEndpoint)
	}

	// Without a ShardHost the store surface is absent.
	_, plain := newTestServer(t, k, Config{})
	resp, err = http.Get(plain.URL + kb.StorePathPrefix + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/store/meta without shard-host mode: status %d, want 404", resp.StatusCode)
	}
}
