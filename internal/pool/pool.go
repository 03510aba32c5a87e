// Package pool provides the typed scratch pool that backs the annotate hot
// path's per-document buffer reuse, plus a bounded index fan-out (document
// fan-out is aida.AnnotateStream's own: it needs input order and a
// run-ahead bound, not an index range).
package pool

import (
	"sync"
	"sync/atomic"
)

// Scratch is a typed free list of *T built on sync.Pool: the idiom every
// per-document scratch buffer on the annotate hot path shares. New builds
// a fresh value on an empty pool; Reset (optional) is applied on Put so a
// recycled value can never leak one document's state into the next — the
// pooling packages reset eagerly at the recycle point, which keeps the Get
// path allocation- and branch-free.
type Scratch[T any] struct {
	// New constructs a fresh value when the pool is empty (required).
	New func() *T
	// Reset clears a value before it is recycled (nil = no clearing).
	Reset func(*T)

	once sync.Once
	p    sync.Pool
}

// Get returns a cleared scratch value, reusing a recycled one when
// available.
func (s *Scratch[T]) Get() *T {
	s.once.Do(func() { s.p.New = func() any { return s.New() } })
	return s.p.Get().(*T)
}

// Put resets v and makes it available for reuse. v must not be used after
// Put returns.
func (s *Scratch[T]) Put(v *T) {
	if v == nil {
		return
	}
	if s.Reset != nil {
		s.Reset(v)
	}
	s.once.Do(func() { s.p.New = func() any { return s.New() } })
	s.p.Put(v)
}

// Zeroed returns a zeroed slice of length n, on buf's array when that is
// large enough and on a new one otherwise: how pooled scratch hands out an
// array whose size changes from one use to the next.
func Zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns when all calls have completed. workers ≤ 1 (or n ≤ 1) runs
// inline. Indices are handed out through a shared counter, so workers
// steal work instead of idling behind a slow stripe; fn must therefore be
// safe for concurrent invocation with distinct indices.
func ForEach(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
