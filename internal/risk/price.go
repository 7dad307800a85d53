package risk

import (
	"context"
	"fmt"

	"riskbench/internal/farm"
	"riskbench/internal/premia"
	"riskbench/internal/telemetry"
)

// PriceCache is a read-through store of pricing results keyed by
// premia.Problem.ContentKey. Implementations must be safe for concurrent
// use; the serving layer's sharded LRU cache is the canonical one. A nil
// cache (the Engine default) disables reuse.
type PriceCache interface {
	// Get returns the cached result for a content key, if present.
	Get(key string) (premia.Result, bool)
	// Put stores a freshly computed result under its content key.
	Put(key string, res premia.Result)
}

// PriceOutcome is one problem's slot in a PriceBatch answer.
type PriceOutcome struct {
	// Result is the pricing result; valid only when Err is nil.
	Result premia.Result
	// Cached reports that the result came from the engine's cache rather
	// than a fresh kernel evaluation in this call. Duplicates of a
	// problem priced within the same batch share the fresh evaluation
	// and report Cached=false.
	Cached bool
	// Err is the per-problem failure (validation or pricing); batch-level
	// failures are returned by PriceBatch itself.
	Err error
}

// stampThreads applies the engine's kernel thread count to a problem,
// cloning first so the caller's problem is never mutated; an explicit
// per-problem "threads" parameter wins.
func (e Engine) stampThreads(p *premia.Problem) *premia.Problem {
	if e.KernelThreads <= 0 {
		return p
	}
	if _, ok := p.Params["threads"]; ok {
		return p
	}
	return p.Clone().Set("threads", float64(e.KernelThreads))
}

// resultFromFarm rebuilds a premia.Result from the hash a live worker
// returned for one task.
func resultFromFarm(r farm.Result) (premia.Result, error) {
	price, ok := farm.ResultField(r, "price")
	if !ok {
		return premia.Result{}, fmt.Errorf("risk: result %q has no price", r.Name)
	}
	ci, _ := farm.ResultField(r, "priceCI")
	delta, _ := farm.ResultField(r, "delta")
	work, _ := farm.ResultField(r, "work")
	hasDelta, _ := farm.ResultField(r, "hasdelta")
	return premia.Result{Price: price, PriceCI: ci, Delta: delta, HasDelta: hasDelta != 0, Work: work}, nil
}

// PriceBatch prices a slice of problems on the engine's live farm in one
// round: the entry point the serving layer's micro-batcher calls, so
// point lookups ride the same Robin-Hood path as portfolio sweeps.
//
// Per problem it (1) answers from the engine's Cache when a result with
// the same content key is already stored, (2) dedupes identical problems
// within the batch so each distinct content key is evaluated exactly
// once, and (3) farms the remaining unique problems over the engine's
// workers. Fresh results are written back to the cache. The outcome
// slice is index-aligned with the input; per-problem validation and
// pricing failures land in PriceOutcome.Err while transport-level
// failures (including context cancellation) are returned as the second
// value.
func (e Engine) PriceBatch(ctx context.Context, problems []*premia.Problem) ([]PriceOutcome, error) {
	reg := e.Telemetry
	// Adopt a distributed trace threaded through ctx (the serving layer
	// mints one per request); PriceBatch never mints its own, so untraced
	// callers stay metrics-only and the farm wire stays trace-free.
	span := reg.StartSpanCtx(ctx, "risk.price_batch")
	defer span.End()
	ctx = telemetry.ContextWithTrace(ctx, span.Context())
	reg.Counter("risk.price.requests").Add(int64(len(problems)))

	out := make([]PriceOutcome, len(problems))
	// indices of every problem (leader and duplicates) wanting each
	// still-unpriced content key, in input order.
	wanting := make(map[string][]int, len(problems))
	var tasks []farm.Task
	for i, p := range problems {
		if p == nil {
			out[i].Err = fmt.Errorf("risk: nil problem at index %d", i)
			continue
		}
		if err := p.Validate(); err != nil {
			out[i].Err = err
			continue
		}
		key := p.ContentKey()
		if e.Cache != nil {
			if res, ok := e.Cache.Get(key); ok {
				out[i] = PriceOutcome{Result: res, Cached: true}
				reg.Counter("risk.price.cache_hits").Add(1)
				continue
			}
		}
		if _, dup := wanting[key]; dup {
			wanting[key] = append(wanting[key], i)
			reg.Counter("risk.price.deduped").Add(1)
			continue
		}
		wanting[key] = []int{i}
		h, err := e.stampThreads(p).ToNsp()
		if err != nil {
			return nil, err
		}
		// The problem ships as an object: in-process backends pass it by
		// reference with zero serialization, wire backends let the farm
		// loader serialize it on demand.
		tasks = append(tasks, farm.Task{Name: key, Obj: h})
	}
	if len(tasks) == 0 {
		return out, nil
	}
	reg.Counter("risk.price.farmed").Add(int64(len(tasks)))

	// Farm the unique misses over the engine's backend, sized to the
	// work: a two-problem flush does not spin up the full worker
	// complement.
	nw := e.workers()
	if nw > len(tasks) {
		nw = len(tasks)
	}
	opts := farm.Options{Strategy: farm.SerializedLoad, BatchSize: e.batch(), Telemetry: reg, Fleet: e.Fleet}
	results, err := e.backend().Run(ctx, tasks, opts, nw)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("risk: price batch cancelled: %w", ctx.Err())
		}
		return nil, fmt.Errorf("risk: price batch farm: %w", err)
	}

	for _, r := range results {
		idxs := wanting[r.Name]
		if idxs == nil {
			return nil, fmt.Errorf("risk: result for unknown key %q", r.Name)
		}
		if r.Err != nil {
			for _, i := range idxs {
				out[i].Err = r.Err
			}
			continue
		}
		res, err := resultFromFarm(r)
		if err != nil {
			return nil, err
		}
		if e.Cache != nil {
			e.Cache.Put(r.Name, res)
		}
		for _, i := range idxs {
			out[i].Result = res
		}
	}
	return out, nil
}
