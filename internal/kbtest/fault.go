package kbtest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"aida/internal/kb"
)

// Faults configures the misbehavior a FaultStore injects into the shard
// host serving it. The zero value injects nothing.
type Faults struct {
	// Latency delays every operation (the host blocks before serving, so
	// hedged routers race a replica after their threshold).
	Latency time.Duration
	// Hang blocks every operation for the full duration — a stuck replica.
	// Unlike Latency it is meant to exceed any reasonable hedge threshold.
	Hang time.Duration
	// ErrorEvery makes every Nth operation fail with a transient error
	// (0 disables).
	ErrorEvery int
	// StaleFingerprint makes the store report a perturbed content hash, as
	// a replica restarted onto different KB content would: every response
	// the host serves carries the wrong fingerprint header, which routers
	// must treat as a replica failure.
	StaleFingerprint bool
}

// errInjected is the transient error FaultStore injects.
var errInjected = errors.New("kbtest: injected transient fault")

// FaultStore wraps a kb.Store with configurable fault injection for
// conformance tests of the remote-store failover machinery. It implements
// the kb.HostFaulter hook a kb.StoreHost consults before serving each
// operation, so a fleet of real HTTP shard hosts misbehaves on demand —
// latency, hangs, transient errors, stale fingerprints — without a second
// HTTP stack. Reconfigure live with Set. All methods are safe for
// concurrent use.
type FaultStore struct {
	// Store is the wrapped store: FaultStore never corrupts data, it only
	// delays or refuses to serve it, so every read it does not override
	// below is the wrapped store's own.
	kb.Store
	idf kb.IDFTabler

	mu sync.Mutex
	f  Faults

	ops atomic.Int64 // operations that reached this replica
}

// NewFaultStore wraps a store (which must expose IDF tables, as a *kb.KB
// and its placement views do) with no faults armed.
func NewFaultStore(s kb.Store) *FaultStore {
	idf, ok := s.(kb.IDFTabler)
	if !ok {
		panic("kbtest: FaultStore requires a store with IDF tables")
	}
	return &FaultStore{Store: s, idf: idf}
}

// Set replaces the armed faults (Faults{} disarms everything).
func (s *FaultStore) Set(f Faults) {
	s.mu.Lock()
	s.f = f
	s.mu.Unlock()
}

// HostFault implements kb.HostFaulter: it delays and/or fails the
// operation according to the armed faults.
func (s *FaultStore) HostFault(ctx context.Context, op string) error {
	n := s.ops.Add(1)
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	for _, d := range []time.Duration{f.Latency, f.Hang} {
		if d <= 0 {
			continue
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if f.ErrorEvery > 0 && n%int64(f.ErrorEvery) == 0 {
		return errInjected
	}
	return nil
}

// Fingerprint reports the wrapped store's content hash, perturbed while
// StaleFingerprint is armed (the host stamps it on every response, so
// routers see the staleness immediately).
func (s *FaultStore) Fingerprint() uint64 {
	fp := s.Store.Fingerprint()
	s.mu.Lock()
	stale := s.f.StaleFingerprint
	s.mu.Unlock()
	if stale {
		fp ^= 0xdeadbeefdeadbeef
	}
	return fp
}

// IDFTables implements kb.IDFTabler by delegation (the embedded kb.Store
// does not expose the extension).
func (s *FaultStore) IDFTables() (phrase, word map[string]float64) { return s.idf.IDFTables() }

// Compile-time conformance: a FaultStore can stand in for any Store and be
// served by a StoreHost with fault hooks attached.
var (
	_ kb.Store       = (*FaultStore)(nil)
	_ kb.IDFTabler   = (*FaultStore)(nil)
	_ kb.HostFaulter = (*FaultStore)(nil)
)
