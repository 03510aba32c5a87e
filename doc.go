// Package aida is a from-scratch Go implementation of the entity
// discovery and disambiguation system of Johannes Hoffart's dissertation
// "Discovering and Disambiguating Named Entities in Text" (AIDA, KORE,
// NED-EE).
//
// The package links ambiguous names in natural-language text to canonical
// entities of a knowledge base, following the dissertation's three
// contributions:
//
//   - AIDA (Chapter 3): robust joint disambiguation over a mention–entity
//     coherence graph, combining an anchor-based popularity prior, a
//     keyphrase partial-match similarity, and entity–entity semantic
//     coherence, with self-adapting robustness tests.
//   - KORE (Chapter 4): keyphrase-overlap entity relatedness with two-stage
//     min-hash/LSH hashing for near-linear all-pairs computation — usable
//     for long-tail and out-of-knowledge-base entities without link
//     structure.
//   - NED-EE (Chapter 5): discovery of emerging entities by explicit
//     placeholder modeling (a global keyphrase model of the name minus the
//     in-KB model) and perturbation-based disambiguation confidence.
//
// # Quick start
//
//	b := aida.NewKBBuilder()
//	page := b.AddEntity("Jimmy Page", "music", "person")
//	b.AddName("Page", page, 30)
//	b.AddKeyphrase(page, "English rock guitarist")
//	// ... more entities, names, links, keyphrases ...
//	sys := aida.New(b.Build())
//	doc, err := sys.AnnotateDoc(ctx, "Page played his Gibson.")
//	if err != nil { ... }
//	for _, a := range doc.Annotations {
//		fmt.Println(a.Mention.Text, "→", a.Label)
//	}
//
// # The request API
//
// All annotation goes through three context-aware methods — AnnotateDoc,
// AnnotateStream (any iter.Seq[string]: up to WithParallelism documents
// annotated at once on one goroutine each, yielded in input order, the
// input pulled a bounded window ahead) and AnnotateCorpus, which collects
// the stream over a slice. Canceling the context, or breaking out of the
// stream, aborts in-flight scoring promptly; cancellation surfaces
// ctx.Err().
//
// Per-request AnnotateOptions — each one field of a RequestSpec, the
// same struct the HTTP server decodes — select the method
// (UseMethodNamed), parallelism (WithParallelism), given mentions instead
// of recognition (WithMentions, the paper's gold-span setting), a context
// prior (WithContext), a domain layer (WithDomain) and opt-in result
// extras (IncludeCandidates, IncludeConfidence, IncludeStats) without
// touching the System, so one process serves heterogeneous traffic:
//
//	docs, err := sys.AnnotateCorpus(ctx, texts, aida.WithParallelism(8))
//	for doc, err := range sys.AnnotateStream(ctx, feed, aida.UseMethodNamed("prior")) { ... }
//
// # Scoring engine and deterministic concurrency
//
// Every System holds one long-lived, sharded, concurrency-safe scoring
// engine bound to its KB that interns per-entity keyphrase profiles and
// memoizes pairwise relatedness for the keyphrase measure kinds (KWCS,
// KPCS, KORE and its LSH variants) across documents. Annotation,
// System.Relatedness and coherence scoring all draw from it, so under
// those measures repeated candidate entities are never re-scored. The
// default method's
// Milne–Witten coherence is cheaper to compute than to remember: each
// document derives it from an inverted index over its in-link lists. The
// memo is neither bounded nor persisted: a process boots cold.
//
// AnnotateCorpus and AnnotateStream are deterministic: the output is
// byte-identical to a sequential AnnotateDoc loop at any parallelism,
// because the engine memoizes only pure functions of the KB.
//
// The engine's state is observable: System.Live().Engine.Stats() returns a
// snapshot with per-measure-kind cache hit/miss counters and the interned
// profiles' approximate memory footprint.
//
// # Sharded knowledge bases
//
// Systems are built over a Store, the read interface every knowledge-base
// implementation satisfies: the in-memory KB, the copy-on-write overlays
// of live updates and domain layers, and the client of a remote shard
// fleet. Sharding is a placement
// rule — entities by id, dictionary rows by surface hash — that a fleet
// lays its data out by; in one process ShardKB(k, n) returns a view whose
// every read is the KB's own. Annotation output is byte-identical at any
// shard count and across every Store — candidate priors included — a
// contract pinned by a golden-corpus conformance suite, so sharded
// deployments can be rolled out without output drift.
//
// # The annotation service
//
// Command aidaserver (cmd/aidaserver) runs the pipeline as a long-running
// HTTP service: the KB is loaded once, one System is shared across all
// requests, and JSON endpoints expose single-document and batch
// annotation (including an order-preserving NDJSON stream for large
// batches), entity relatedness, health, and engine statistics in JSON or
// Prometheus text form. Requests may select a disambiguation method per
// call, and a client disconnect cancels the request context all the way
// into the scoring workers (the abort is visible in the service's
// canceled-request counter). Because batch annotation is deterministic,
// service responses are byte-identical to the in-process API at any
// parallelism, and replicas of the same KB snapshot agree byte-for-byte.
//
// # Documentation
//
// docs/API.md is the full reference for this package's public surface and
// the HTTP endpoints; docs/ARCHITECTURE.md maps the internal packages,
// the mention–entity graph algorithm, and where the shared engine sits in
// the data flow. The package's Examples (example_test.go) are runnable,
// output-pinned walkthroughs of AnnotateDoc (on recognized and on given
// mentions), AnnotateCorpus, AnnotateStream and Relatedness.
package aida
