package kbtest

import (
	"context"
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"testing"

	"aida/internal/kb"
)

// Fleet is a real multi-process-shaped shard fleet for conformance tests:
// one httptest server per shard×replica, each serving the golden store
// through a kb.StoreHost over real HTTP, each backed by its own FaultStore
// so tests can misbehave any single replica. Servers close with the test.
type Fleet struct {
	// Map is the fleet topology (primary first per shard), ready to dial.
	Map kb.ShardMap
	// Replicas[shard][replica] is the fault injector of one endpoint
	// (replica 0 is the primary).
	Replicas [][]*FaultStore

	http2 bool
}

// StartFleet boots a shards×replicas fleet of HTTP/1.1 keep-alive shard
// hosts over the store.
func StartFleet(t testing.TB, s kb.Store, shards, replicas int) *Fleet {
	return startFleet(t, s, shards, replicas, false)
}

// StartFleetHTTP2 is StartFleet over HTTP/2 (TLS with test certificates;
// Dial wires the matching client).
func StartFleetHTTP2(t testing.TB, s kb.Store, shards, replicas int) *Fleet {
	return startFleet(t, s, shards, replicas, true)
}

func startFleet(t testing.TB, s kb.Store, shards, replicas int, http2 bool) *Fleet {
	t.Helper()
	f := &Fleet{http2: http2}
	for shard := 0; shard < shards; shard++ {
		var eps kb.ShardEndpoints
		var faults []*FaultStore
		for rep := 0; rep < replicas; rep++ {
			fs := NewFaultStore(s)
			host, err := kb.NewStoreHost(fs, shard, shards)
			if err != nil {
				t.Fatalf("NewStoreHost(%d/%d): %v", shard, shards, err)
			}
			srv := httptest.NewUnstartedServer(host.Handler())
			if http2 {
				srv.EnableHTTP2 = true
				srv.StartTLS()
			} else {
				srv.Start()
			}
			t.Cleanup(srv.Close)
			faults = append(faults, fs)
			if rep == 0 {
				eps.Primary = srv.URL
			} else {
				eps.Replicas = append(eps.Replicas, srv.URL)
			}
		}
		f.Map.Shards = append(f.Map.Shards, eps)
		f.Replicas = append(f.Replicas, faults)
	}
	return f
}

// Dial connects a RemoteStore to the fleet. Hedging is disabled unless
// opts sets HedgeAfter, so tests that want it opt in explicitly and
// everything else stays deterministic.
func (f *Fleet) Dial(t testing.TB, opts kb.RemoteOptions) *kb.RemoteStore {
	t.Helper()
	if opts.HedgeAfter == 0 {
		opts.HedgeAfter = -1
	}
	if f.http2 && opts.Client == nil {
		// httptest's HTTP/2 certificates are self-signed; a custom
		// TLSClientConfig disables the transport's automatic HTTP/2, so it
		// is forced back on explicitly.
		opts.Client = &http.Client{Transport: &http.Transport{
			TLSClientConfig:   &tls.Config{InsecureSkipVerify: true},
			ForceAttemptHTTP2: true,
		}}
	}
	r, err := kb.DialFleet(context.Background(), f.Map, opts)
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	return r
}

// SetAll arms the same faults on every replica the predicate selects.
func (f *Fleet) SetAll(pred func(shard, replica int) bool, faults Faults) {
	for shard, reps := range f.Replicas {
		for rep, fs := range reps {
			if pred(shard, rep) {
				fs.Set(faults)
			}
		}
	}
}

// ClearFaults disarms every replica.
func (f *Fleet) ClearFaults() {
	f.SetAll(func(int, int) bool { return true }, Faults{})
}
