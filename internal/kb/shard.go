package kb

import "fmt"

// Sharding is a placement rule, not a storage layout. A fleet of shard
// hosts (StoreHost) and the router dialing it (RemoteStore) agree on where
// a fact lives through two pure functions:
//
//   - entities are assigned round-robin by id: entity e lives on shard
//     EntityShard(e, N) = e mod N;
//   - dictionary rows are assigned by normalized-surface hash: the whole
//     row for a surface lives on shard NameShard(surface, N), so one
//     lookup owns all anchor counts for that name.
//
// Inside one process the KB is immutable and lock-free, so splitting it
// physically buys nothing (the layer benchmarks measured the in-process
// router never faster than the KB it copied). Shard therefore returns a
// view: the KB itself, reporting an N-shard placement.

// EntityShard returns the shard owning entity id under n shards. id must
// be a repository id (≥ 0).
func EntityShard(id EntityID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(id) % n
}

// NameShard returns the shard owning the dictionary row of a normalized
// surface under n shards (FNV-1a over the key bytes).
func NameShard(normalized string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(normalized); i++ {
		h ^= uint64(normalized[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// ShardedKB is a KB viewed under an N-shard placement. Every read is the
// KB's own — same backing arrays, same fingerprint — so results are
// byte-identical at any shard count by construction; only NumShards
// differs, which is what a process reports (and a fleet lays its data out
// by). Immutable and safe for concurrent use.
type ShardedKB struct {
	*KB
	n int
}

// Shard returns k viewed under an n-shard placement. n must be ≥ 1.
func Shard(k *KB, n int) *ShardedKB {
	if n < 1 {
		panic(fmt.Sprintf("kb: invalid shard count %d", n))
	}
	return &ShardedKB{KB: k, n: n}
}

// NumShards returns the shard count N of the placement.
func (s *ShardedKB) NumShards() int { return s.n }
