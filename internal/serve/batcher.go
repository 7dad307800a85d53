package serve

import (
	"context"
	"fmt"
	"sync"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// PriceFunc prices a batch of problems and returns index-aligned
// outcomes. risk.Engine.PriceBatch is the production implementation;
// tests substitute stubs to count kernel evaluations. The problems
// slice is reused across batches, so implementations must not retain it
// past the call.
type PriceFunc func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error)

// priceRequest is one problem waiting for a batch slot. done is
// buffered, so the batcher's reply never blocks even when the requester
// has abandoned its deadline. span roots the request's distributed
// trace and queue times its wait for a batch slot; both are nil when
// tracing is off.
//
// Descriptors are pooled: acquire with newPriceRequest, return with
// release once the response has been consumed (or the request was never
// enqueued), so the buffered done channel is guaranteed empty for the
// next user.
type priceRequest struct {
	problem *premia.Problem
	done    chan priceResponse
	span    *telemetry.Span
	queue   *telemetry.Span
}

type priceResponse struct {
	outcome risk.PriceOutcome
	err     error // batch-level failure (transport, cancellation)
}

var requestPool = sync.Pool{New: func() any {
	return &priceRequest{done: make(chan priceResponse, 1)}
}}

// newPriceRequest returns a pooled descriptor for one problem, its done
// channel allocated once and reused across requests.
func newPriceRequest(p *premia.Problem) *priceRequest {
	r := requestPool.Get().(*priceRequest)
	r.problem = p
	return r
}

// release returns the descriptor to the pool. The caller must have
// consumed the response (or never enqueued the request): a stale value
// left in done would leak into the descriptor's next life.
func (r *priceRequest) release() {
	r.problem, r.span, r.queue = nil, nil, nil
	requestPool.Put(r)
}

// batcher coalesces single-problem requests into farm batches by
// natural batching: once a request arrives, it takes whatever else is
// already queued, up to maxBatch, without waiting, and flushes at once —
// the dynamic version of the farm's BatchSize bunching, applied to
// request traffic instead of a pre-built portfolio.
//
// Flushes run synchronously on the batcher goroutine; while one batch
// is pricing, later arrivals accumulate in the bounded input queue and
// form the next batch. Under load batches therefore fill to maxBatch,
// and an idle server prices a lone request after one farm round with no
// linger. Intra-batch parallelism comes from the engine's farm workers,
// inter-request dedup from the server's singleflight layer above.
type batcher struct {
	price    PriceFunc
	maxBatch int
	reg      *telemetry.Registry
	ctx      context.Context
	in       chan *priceRequest
	exited   chan struct{}

	// problems is runBatch's reusable argument slice for price; both run
	// on the batcher goroutine, so no locking is needed.
	problems []*premia.Problem
}

func newBatcher(ctx context.Context, price PriceFunc, maxBatch, queue int, reg *telemetry.Registry) *batcher {
	b := &batcher{
		price:    price,
		maxBatch: maxBatch,
		reg:      reg,
		ctx:      ctx,
		in:       make(chan *priceRequest, queue),
		exited:   make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit enqueues a request without blocking; false means the queue is
// full and the caller should shed load (429).
func (b *batcher) submit(r *priceRequest) bool {
	select {
	case b.in <- r:
		return true
	default:
		return false
	}
}

// submitWait enqueues a request, blocking until there is queue space or
// the context ends — backpressure for callers that fan one admitted
// request into many problems (the /batch endpoint).
func (b *batcher) submitWait(ctx context.Context, r *priceRequest) error {
	select {
	case b.in <- r:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// close stops the batcher after flushing everything already queued. The
// server guarantees no submit is concurrent with close (it drains
// admitted requests first), so closing the channel is safe.
func (b *batcher) close() {
	close(b.in)
	<-b.exited
}

func (b *batcher) loop() {
	defer close(b.exited)
	// buf is reused across batches: runBatch is synchronous, so once it
	// returns the batch's descriptors belong to their consumers and buf
	// can be truncated in place. A closed queue ends the range only after
	// every request still buffered in it has been flushed.
	var buf []*priceRequest
	for r := range b.in {
		buf = append(buf, r)
	fill:
		for len(buf) < b.maxBatch {
			select {
			case r, ok := <-b.in:
				if !ok {
					break fill
				}
				buf = append(buf, r)
			default:
				break fill
			}
		}
		if len(buf) == b.maxBatch {
			b.reg.Counter("serve.batch.flush_size").Add(1)
		} else {
			b.reg.Counter("serve.batch.flush_idle").Add(1)
		}
		b.reg.Observe("serve.batch.size", float64(len(buf)))
		b.runBatch(buf)
		clear(buf) // descriptors are pooled; drop the stale refs
		buf = buf[:0]
	}
}

// runBatch prices one flushed batch and fans the outcomes back out. The
// batch prices under the first traced request's trace — one farm run
// serves the whole batch, so one tree carries its full breakdown; the
// other requests' traces keep their queue timing.
func (b *batcher) runBatch(batch []*priceRequest) {
	if cap(b.problems) < len(batch) {
		b.problems = make([]*premia.Problem, len(batch))
	}
	problems := b.problems[:len(batch)]
	ctx := b.ctx
	adopted := false
	for i, r := range batch {
		problems[i] = r.problem
		r.queue.End()
		if !adopted {
			if tc := r.span.Context(); tc.Valid() {
				ctx = telemetry.ContextWithTrace(ctx, tc)
				adopted = true
			}
		}
	}
	out, err := b.price(ctx, problems)
	if err == nil && len(out) != len(batch) {
		// A misbehaving PriceFunc must not panic the batcher goroutine —
		// that would strand every waiter in this and all later batches.
		// Surface the mismatch as a batch-level error instead.
		err = fmt.Errorf("serve: price returned %d outcomes for %d problems", len(out), len(batch))
	}
	for i, r := range batch {
		r.span.End()
		if err != nil {
			r.done <- priceResponse{err: err}
			continue
		}
		r.done <- priceResponse{outcome: out[i]}
	}
}
