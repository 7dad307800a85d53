// Package serve turns the benchmark's pricing engine into a long-lived
// production service: an HTTP/JSON front end that keeps the parallel
// kernel saturated, the step the paper's one-shot batch runs stop short
// of.
//
// Three mechanisms sit between the socket and the farm:
//
//   - a dynamic micro-batcher that coalesces concurrent single-problem
//     requests into farm batches (natural batching: each flush takes
//     whatever is queued, up to the max batch size, the moment the
//     pricer is free — the same bunching lever as the farm's BatchSize,
//     with no linger timer), so point lookups ride the Robin-Hood hot
//     path together with portfolio sweeps;
//   - a sharded, content-addressed result cache keyed by
//     premia.Problem.ContentKey, with singleflight suppression of
//     duplicate in-flight prices and LRU eviction per shard;
//   - admission control and lifecycle: a bounded request queue that
//     answers 429 + Retry-After on overload instead of collapsing,
//     per-request deadlines via context, /healthz and /metrics
//     endpoints, and a graceful drain that lets in-flight farm batches
//     finish before the process exits.
//
// All serving metrics live under the "serve." prefix in the telemetry
// registry: serve.requests, serve.rejected, serve.request_seconds,
// serve.inflight, serve.cache.{hits,misses,evictions,entries},
// serve.singleflight.shared and serve.batch.{size,flush_size,flush_idle}
// (flush_size counts full flushes, flush_idle underfull ones).
package serve
