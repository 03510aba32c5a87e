package kb

import (
	"context"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startFleet boots one httptest server per shard×replica, each serving the
// KB through a real StoreHost handler, optionally wrapped by per-endpoint
// middleware (index 0 is the primary). It returns the shard map of the
// fleet; servers close with the test.
func startFleet(t testing.TB, k Store, shards, replicas int, wrap func(shard, replica int, h http.Handler) http.Handler) ShardMap {
	t.Helper()
	var m ShardMap
	for shard := 0; shard < shards; shard++ {
		host, err := NewStoreHost(k, shard, shards)
		if err != nil {
			t.Fatalf("NewStoreHost(%d/%d): %v", shard, shards, err)
		}
		var eps ShardEndpoints
		for rep := 0; rep < replicas; rep++ {
			h := http.Handler(host.Handler())
			if wrap != nil {
				h = wrap(shard, rep, h)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			if rep == 0 {
				eps.Primary = srv.URL
			} else {
				eps.Replicas = append(eps.Replicas, srv.URL)
			}
		}
		m.Shards = append(m.Shards, eps)
	}
	return m
}

// dialFleet dials with hedging disabled unless a test opts in, so
// failures are deterministic.
func dialFleet(t testing.TB, m ShardMap, opts RemoteOptions) *RemoteStore {
	t.Helper()
	if opts.HedgeAfter == 0 {
		opts.HedgeAfter = -1
	}
	r, err := DialFleet(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	return r
}

// normEntity deep-copies an entity with empty slices/maps lowered to nil:
// gob does not distinguish nil from empty, and neither does any consumer,
// so conformance compares the canonical form.
func normEntity(e *Entity) Entity {
	out := *e
	if len(out.Types) == 0 {
		out.Types = nil
	}
	if len(out.InLinks) == 0 {
		out.InLinks = nil
	}
	if len(out.OutLinks) == 0 {
		out.OutLinks = nil
	}
	if len(out.Keyphrases) == 0 {
		out.Keyphrases = nil
	}
	if len(out.KeywordNPMI) == 0 {
		out.KeywordNPMI = nil
	}
	return out
}

func TestRemoteStoreConformance(t *testing.T) {
	k := buildShardKB(t)
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			m := startFleet(t, k, shards, 1, nil)
			r := dialFleet(t, m, RemoteOptions{})

			if got := r.NumShards(); got != shards {
				t.Fatalf("NumShards = %d, want %d", got, shards)
			}
			if got := r.NumEntities(); got != k.NumEntities() {
				t.Fatalf("NumEntities = %d, want %d", got, k.NumEntities())
			}
			if got := r.Fingerprint(); got != k.Fingerprint() {
				t.Fatalf("Fingerprint = %016x, want %016x", got, k.Fingerprint())
			}
			if got, want := r.Names(), k.Names(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Names diverge:\n got %v\nwant %v", got, want)
			}
			for _, name := range k.Names() {
				if !r.HasName(name) {
					t.Fatalf("HasName(%q) = false on the remote store", name)
				}
				want := k.Candidates(name)
				got := r.Candidates(name)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Candidates(%q) diverge:\n got %+v\nwant %+v", name, got, want)
				}
			}
			if r.HasName("no such surface") || r.Candidates("no such surface") != nil {
				t.Fatal("remote store invents candidates for an unknown surface")
			}
			for id := 0; id < k.NumEntities(); id++ {
				want := normEntity(k.Entity(EntityID(id)))
				got := normEntity(r.Entity(EntityID(id)))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Entity(%d) diverges:\n got %+v\nwant %+v", id, got, want)
				}
				gotID, ok := r.EntityByName(want.Name)
				if !ok || gotID != EntityID(id) {
					t.Fatalf("EntityByName(%q) = (%d, %v), want (%d, true)", want.Name, gotID, ok, id)
				}
			}
			if _, ok := r.EntityByName("No Such Entity"); ok {
				t.Fatal("EntityByName invents an entity")
			}
			for _, e := range []*Entity{k.Entity(0), k.Entity(7)} {
				for _, kp := range e.Keyphrases {
					if got, want := r.PhraseIDF(kp.Phrase), k.PhraseIDF(kp.Phrase); got != want {
						t.Fatalf("PhraseIDF(%q) = %v, want %v", kp.Phrase, got, want)
					}
					for _, w := range kp.Words {
						if got, want := r.WordIDF(w), k.WordIDF(w); got != want {
							t.Fatalf("WordIDF(%q) = %v, want %v", w, got, want)
						}
					}
				}
			}
		})
	}
}

func TestRemoteCandidatesBulk(t *testing.T) {
	k := buildShardKB(t)
	m := startFleet(t, k, 3, 1, nil)
	r := dialFleet(t, m, RemoteOptions{})

	surfaces := append(k.Names(), "no such surface", "Jordan", "Jordan") // misses and duplicates
	lists := r.CandidatesBulk(surfaces)
	if len(lists) != len(surfaces) {
		t.Fatalf("CandidatesBulk returned %d lists for %d surfaces", len(lists), len(surfaces))
	}
	for i, s := range surfaces {
		if want := k.Candidates(s); !reflect.DeepEqual(lists[i], want) {
			t.Fatalf("bulk list %d (%q) diverges:\n got %+v\nwant %+v", i, s, lists[i], want)
		}
	}

	// The gather phase must have pre-fetched every candidate entity: problem
	// materialization after a bulk call costs no further round trips.
	st := r.Stats()
	for _, list := range lists {
		for _, c := range list {
			r.Entity(c.Entity)
		}
	}
	if got := r.Stats().Requests; got != st.Requests {
		t.Fatalf("Entity lookups after CandidatesBulk cost %d extra requests", got-st.Requests)
	}
	// And the row cache answers repeat bulk calls locally.
	r.CandidatesBulk(surfaces)
	if got := r.Stats().Requests; got != st.Requests {
		t.Fatalf("repeat CandidatesBulk cost %d extra requests", got-st.Requests)
	}
}

func TestRemoteHedging(t *testing.T) {
	k := buildShardKB(t)
	var slow atomic.Bool
	m := startFleet(t, k, 1, 2, func(shard, rep int, h http.Handler) http.Handler {
		if rep != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if slow.Load() {
				select {
				case <-time.After(2 * time.Second):
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	r := dialFleet(t, m, RemoteOptions{HedgeAfter: 5 * time.Millisecond})

	slow.Store(true) // primary now stalls; the hedge must win
	start := time.Now()
	got := r.Candidates("Jordan")
	if want := k.Candidates("Jordan"); !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged Candidates diverge:\n got %+v\nwant %+v", got, want)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged request took %v; the replica should have answered long before the primary", elapsed)
	}
	if st := r.Stats(); st.Hedges < 1 {
		t.Fatalf("Stats.Hedges = %d, want >= 1", st.Hedges)
	}
}

func TestRemoteRetryFailover(t *testing.T) {
	k := buildShardKB(t)
	var failPrimary atomic.Bool
	m := startFleet(t, k, 2, 2, func(shard, rep int, h http.Handler) http.Handler {
		if rep != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failPrimary.Load() {
				http.Error(w, "injected transient error", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	r := dialFleet(t, m, RemoteOptions{})

	failPrimary.Store(true)
	for _, name := range k.Names() {
		if got, want := r.Candidates(name), k.Candidates(name); !reflect.DeepEqual(got, want) {
			t.Fatalf("failover Candidates(%q) diverge:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for id := 0; id < k.NumEntities(); id++ {
		if got, want := normEntity(r.Entity(EntityID(id))), normEntity(k.Entity(EntityID(id))); !reflect.DeepEqual(got, want) {
			t.Fatalf("failover Entity(%d) diverges", id)
		}
	}
	st := r.Stats()
	if st.Retries < 1 || st.Failovers < 1 {
		t.Fatalf("Stats = %+v, want retries and failovers >= 1 with a failing primary", st)
	}
}

func TestRemoteAllReplicasFailPanics(t *testing.T) {
	k := buildShardKB(t)
	var fail atomic.Bool
	m := startFleet(t, k, 1, 2, func(shard, rep int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fail.Load() {
				http.Error(w, "injected outage", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	r := dialFleet(t, m, RemoteOptions{})
	fail.Store(true)

	defer func() {
		re, ok := recover().(*RemoteError)
		if !ok {
			t.Fatalf("want a *RemoteError panic, got %v", re)
		}
		if re.Op != "rows" || len(re.Errs) != 2 {
			t.Fatalf("RemoteError = %+v, want op rows with 2 endpoint errors", re)
		}
		if msg := re.Error(); !strings.Contains(msg, "injected outage") || !strings.Contains(msg, "all 2 endpoint(s)") {
			t.Fatalf("RemoteError message %q lacks the endpoint detail", msg)
		}
	}()
	r.Candidates("Jordan")
	t.Fatal("Candidates succeeded with every replica down")
}

// buildOtherKB is a KB with different content (and therefore a different
// fingerprint) from buildShardKB.
func buildOtherKB(t testing.TB) *KB {
	t.Helper()
	b := NewBuilder()
	id := b.AddEntity("Impostor", "misc", "thing")
	b.AddName("Jordan", id, 1)
	b.AddKeyphrase(id, "not the real repository")
	return b.Build()
}

func TestDialRejectsFingerprintMismatch(t *testing.T) {
	k, other := buildShardKB(t), buildOtherKB(t)
	// Shard 1's host serves a different repository.
	good := startFleet(t, k, 2, 1, nil)
	host, err := NewStoreHost(other, 1, 2)
	if err != nil {
		t.Fatalf("NewStoreHost: %v", err)
	}
	srv := httptest.NewServer(host.Handler())
	defer srv.Close()
	good.Shards[1].Primary = srv.URL

	_, err = DialFleet(context.Background(), good, RemoteOptions{})
	if err == nil {
		t.Fatal("DialFleet accepted a fleet serving two different repositories")
	}
	for _, want := range []string{"fingerprint", "shard 1", srv.URL} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("dial error %q does not name %q", err, want)
		}
	}
}

func TestDialRejectsMisWiredShardMap(t *testing.T) {
	k := buildShardKB(t)
	m := startFleet(t, k, 2, 1, nil)
	m.Shards[0], m.Shards[1] = m.Shards[1], m.Shards[0] // swapped positions
	_, err := DialFleet(context.Background(), m, RemoteOptions{})
	if err == nil || !strings.Contains(err.Error(), "mis-wired") {
		t.Fatalf("DialFleet = %v, want a mis-wired shard map rejection", err)
	}
}

func TestFailoverRejectsStaleFingerprint(t *testing.T) {
	k := buildShardKB(t)
	var stale atomic.Bool
	staleWrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stale.Load() {
				// Serve correct content under a wrong fingerprint, as a
				// replica restarted onto different KB content would.
				w.Header().Set(FingerprintHeader, "deadbeefdeadbeef")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				for key, vals := range rec.Header() {
					if key == FingerprintHeader {
						continue
					}
					w.Header()[key] = vals
				}
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			h.ServeHTTP(w, r)
		})
	}

	t.Run("replica-fails-over", func(t *testing.T) {
		m := startFleet(t, k, 1, 2, func(shard, rep int, h http.Handler) http.Handler {
			if rep == 0 {
				return staleWrap(h)
			}
			return h
		})
		r := dialFleet(t, m, RemoteOptions{})
		stale.Store(true)
		defer stale.Store(false)
		if got, want := r.Candidates("Jordan"), k.Candidates("Jordan"); !reflect.DeepEqual(got, want) {
			t.Fatalf("Candidates diverge with a stale primary:\n got %+v\nwant %+v", got, want)
		}
		if st := r.Stats(); st.Retries < 1 || st.Failovers < 1 {
			t.Fatalf("Stats = %+v, want the stale primary retried and failed over", st)
		}
	})

	t.Run("all-stale-panics", func(t *testing.T) {
		m := startFleet(t, k, 1, 2, func(shard, rep int, h http.Handler) http.Handler {
			return staleWrap(h)
		})
		r := dialFleet(t, m, RemoteOptions{})
		stale.Store(true)
		defer stale.Store(false)
		defer func() {
			re, ok := recover().(*RemoteError)
			if !ok {
				t.Fatalf("want a *RemoteError panic, got %v", re)
			}
			if msg := re.Error(); !strings.Contains(msg, "fingerprint") || !strings.Contains(msg, "deadbeefdeadbeef") {
				t.Fatalf("RemoteError message %q does not describe the fingerprint mismatch", msg)
			}
		}()
		r.Candidates("Jordan")
		t.Fatal("Candidates accepted responses with a foreign fingerprint")
	})
}

// TestHostNamesPagination pages a host's dictionary two names at a time:
// each page resumes strictly after the previous page's last name, and the
// last page says there is no more.
func TestHostNamesPagination(t *testing.T) {
	k := buildShardKB(t)
	host, err := NewStoreHost(k, 0, 1)
	if err != nil {
		t.Fatalf("NewStoreHost: %v", err)
	}
	srv := httptest.NewServer(host.Handler())
	defer srv.Close()
	var got []string
	for after, more := "", true; more; {
		resp, err := http.Get(srv.URL + StorePathPrefix + "/names?" + url.Values{"after": {after}, "limit": {"2"}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		var page wireNames
		err = gob.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode names page: %v", err)
		}
		if len(page.Names) == 0 || len(page.Names) > 2 {
			t.Fatalf("page after %q holds %d names, want 1 or 2", after, len(page.Names))
		}
		got = append(got, page.Names...)
		after, more = page.Names[len(page.Names)-1], page.More
	}
	if want := k.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paged names diverge:\n got %v\nwant %v", got, want)
	}
}

// TestDialNamesPagination dials a host whose dictionary needs two mirror
// pages.
func TestDialNamesPagination(t *testing.T) {
	b := NewBuilder()
	id := b.AddEntity("Namesake", "misc", "thing")
	for i := 0; i <= namesPageSize; i++ {
		b.AddName(fmt.Sprintf("Namesake %05d", i), id, 1)
	}
	k := b.Build()
	r := dialFleet(t, startFleet(t, k, 1, 1, nil), RemoteOptions{})
	if got, want := r.Names(), k.Names(); len(got) <= namesPageSize || !reflect.DeepEqual(got, want) {
		t.Fatalf("mirrored %d names, want the KB's %d", len(got), len(want))
	}
	// One request replicates the IDF tables, two mirror the dictionary.
	if got := r.Stats().Requests; got != 3 {
		t.Fatalf("dial sent %d store requests, want 3", got)
	}
}

func TestStoreHostRejectsMisroutedRequests(t *testing.T) {
	k := buildShardKB(t)
	host, err := NewStoreHost(k, 0, 2)
	if err != nil {
		t.Fatalf("NewStoreHost: %v", err)
	}
	srv := httptest.NewServer(host.Handler())
	defer srv.Close()

	// A remote store wired to believe this host serves both shards will
	// send it entities and rows it does not own; the host must refuse.
	m := ShardMap{Shards: []ShardEndpoints{
		{Primary: srv.URL},
		{Primary: srv.URL},
	}}
	if _, err := DialFleet(context.Background(), m, RemoteOptions{}); err == nil {
		t.Fatal("DialFleet accepted one shard-0 host claiming both shards")
	} else if !strings.Contains(err.Error(), "serves shard 0/2, want 1/2") {
		t.Fatalf("dial error %q does not describe the shard position mismatch", err)
	}
}

// noIDF hides the IDFTabler extension of the wrapped store.
type noIDF struct{ Store }

func TestNewStoreHostErrors(t *testing.T) {
	k := buildShardKB(t)
	if _, err := NewStoreHost(k, 2, 2); err == nil {
		t.Fatal("NewStoreHost accepted shard position 2/2")
	}
	if _, err := NewStoreHost(k, 0, 0); err == nil {
		t.Fatal("NewStoreHost accepted a zero-width fleet")
	}
	if _, err := NewStoreHost(noIDF{k}, 0, 1); err == nil || !strings.Contains(err.Error(), "IDF") {
		t.Fatalf("NewStoreHost(noIDF) = %v, want an IDF-tables error", err)
	}
}

func TestStoreHostOwnedNamesPartition(t *testing.T) {
	k := buildShardKB(t)
	const shards = 3
	total := 0
	for shard := 0; shard < shards; shard++ {
		h, err := NewStoreHost(k, shard, shards)
		if err != nil {
			t.Fatalf("NewStoreHost(%d/%d): %v", shard, shards, err)
		}
		if s, n := h.Shard(); s != shard || n != shards {
			t.Fatalf("Shard() = %d/%d, want %d/%d", s, n, shard, shards)
		}
		total += h.NumNames()
	}
	if want := len(k.Names()); total != want {
		t.Fatalf("shard hosts own %d names in total, want %d (a partition)", total, want)
	}
}
