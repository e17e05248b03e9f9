// Package service is the resident protocol-synthesis layer behind the
// trustd daemon (cmd/trustd): it turns the one-shot analysis pipeline
// of the CLIs — parse, compile, reduce, recover the execution sequence,
// cross-check, simulate — into a cached request/response system, the
// long-lived escrow-intermediary shape the paper's Section 2.5 trusted
// components are meant to have in deployment.
//
// # Request lifecycle
//
// POST /v1/analyze accepts a problem either as a raw .exch body or as a
// JSON spec {"source": …, options…}; query parameters (?seq, ?verify,
// ?crosscheck, ?simulate, ?seed, ?format=text) override body options.
// The handler first looks the source up in the front memo (bounded by
// CacheEntries), keyed by the first 128 bits of the source's SHA-256.
// A memo hit yields the problem's fingerprint state and digest with no
// parse at all; a miss parses and compiles the source (dsl.LoadReader +
// model.Problem.Compile), fingerprints it and fills the memo. Parse
// errors answer 400 and are never memoized. The request folds its
// options into the fingerprint state to get its cache key, and then:
//
//  1. cache hit — the stored body is replayed byte-for-byte
//     (X-Trustd-Cache: hit);
//  2. an identical run is already in flight — the request parks on it
//     instead of starting another engine run (X-Trustd-Cache:
//     coalesced; this is the singleflight collapse);
//  3. otherwise a leader goroutine takes a slot on the bounded engine
//     semaphore, loads the source if a memo hit left the problem
//     unloaded, runs the pipeline, renders both bodies (JSON and the
//     trustseq-identical text), publishes to the LRU cache and wakes
//     every waiter (X-Trustd-Cache: miss).
//
// Every waiter — leader's request included — honors its own per-request
// timeout; a timed-out request returns 504 while the engine run it
// started completes and still populates the cache, so the work is never
// wasted.
//
// # Cache key
//
// The cache is content-addressed on the compiled problem, not the
// source text: requestKey streams a canonical, length-prefixed encoding
// of every verdict-relevant problem field (parties, exchanges, trust
// declarations, indemnities, constraints — in declaration order, which
// is semantically meaningful) plus the option set through a two-lane
// FNV-1a/splitmix digest into the same [2]uint64 key shape as the
// packed-fingerprint memo in internal/search. Reformatted or
// re-commented sources therefore share one cache slot; any change that
// could alter the response body changes the key.
//
// # Concurrency and ownership
//
// A Service is safe for unbounded concurrent use. One mutex guards the
// LRU caches, the front memo and the in-flight table and is never held
// across an engine run; engine parallelism is bounded only by the MaxConcurrent
// semaphore. Cached bodies are immutable after insertion and shared by
// reference — handlers must never mutate them. Telemetry follows the
// repo-wide contract: counters (service.cache.hits/misses/evictions,
// service.flight.collapsed, service.timeouts) and per-endpoint HTTP
// histograms are additive and nil-disabled, and response bodies are
// identical with telemetry on or off.
//
// # Request-scoped observability
//
// Every request carries an identity: X-Trustd-Request-Id is accepted
// from the client when well-formed, generated otherwise, and always
// echoed back. The handler pipeline records its stages (parse, compile,
// cache, load, engine/patch, crosscheck, simulate, render) against the
// request, surfaces them in a Server-Timing response header, and hands
// the engine run a tracer fanning out into a bounded request-local ring,
// allocated only when an engine runs — so core/sequencing/search/petri spans land in the same record with
// no process-wide sink. The slow-request log (slowlog.go) keeps a
// bounded recent-request table for every request and the full span tree
// for any request crossing the SlowLogMillis threshold; GET /v1/requests
// serves the table, GET /v1/trace/{id} the retained tree, and GET
// /v1/stats folds in rolling-window latency percentiles per endpoint,
// cache age/traffic detail, and the log's occupancy. All of it obeys
// the additivity contract above: a nil reqTrace (the plain Analyze API,
// benchmarks) costs a handful of nil checks and allocates nothing.
package service
