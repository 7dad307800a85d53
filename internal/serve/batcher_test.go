package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
)

// recordingPrice returns a PriceFunc that records flushed batch sizes
// and prices each problem as its strike (no kernel involved).
func recordingPrice(mu *sync.Mutex, sizes *[]int) PriceFunc {
	return func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		mu.Lock()
		*sizes = append(*sizes, len(problems))
		mu.Unlock()
		out := make([]risk.PriceOutcome, len(problems))
		for i, p := range problems {
			out[i] = risk.PriceOutcome{Result: premia.Result{Price: p.Params["K"]}}
		}
		return out, nil
	}
}

func batchProblem(k float64) *premia.Problem {
	return premia.New().
		SetModel(premia.ModelBS1D).SetOption(premia.OptCallEuro).SetMethod(premia.MethodCFCall).
		Set("S0", 100).Set("r", 0.05).Set("sigma", 0.2).Set("K", k).Set("T", 1)
}

// gatedPrice returns a PriceFunc that records flushed batch sizes,
// prices each problem as its strike, and holds every batch until gate
// is closed; entered receives once, when the first batch is pricing.
func gatedPrice(gate <-chan struct{}, mu *sync.Mutex, sizes *[]int) (PriceFunc, <-chan struct{}) {
	entered := make(chan struct{}, 1)
	rec := recordingPrice(mu, sizes)
	return func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return rec(ctx, problems)
	}, entered
}

// awaitStrikes checks each request is answered with its own strike.
func awaitStrikes(t *testing.T, reqs []*priceRequest) {
	t.Helper()
	for i, r := range reqs {
		select {
		case resp := <-r.done:
			if resp.err != nil || resp.outcome.Result.Price != r.problem.Params["K"] {
				t.Fatalf("request %d: %+v", i, resp)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered", i)
		}
	}
}

// queueBehindBlocker submits one request, waits until its batch is held
// in the gated PriceFunc, then queues n more behind it. It returns the
// blocker followed by the queued requests.
func queueBehindBlocker(t *testing.T, b *batcher, entered <-chan struct{}, n int) []*priceRequest {
	t.Helper()
	reqs := make([]*priceRequest, n+1)
	for i := range reqs {
		reqs[i] = &priceRequest{problem: batchProblem(float64(80 + i)), done: make(chan priceResponse, 1)}
		if !b.submit(reqs[i]) {
			t.Fatalf("submit %d rejected", i)
		}
		if i == 0 {
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("blocker never reached the pricer")
			}
		}
	}
	return reqs
}

func assertSizes(t *testing.T, mu *sync.Mutex, sizes *[]int, want []int) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(*sizes, want) {
		t.Fatalf("flushed batches %v, want %v", *sizes, want)
	}
}

// TestBatcherLoneRequestFlushesAlone: with room for 100, a single
// request is priced at once in a batch of its own — there is no timer
// to wait for company.
func TestBatcherLoneRequestFlushesAlone(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	reg := telemetry.New()
	b := newBatcher(context.Background(), recordingPrice(&mu, &sizes), 100, 64, reg)
	defer b.close()
	r := &priceRequest{problem: batchProblem(95), done: make(chan priceResponse, 1)}
	if !b.submit(r) {
		t.Fatal("submit rejected")
	}
	awaitStrikes(t, []*priceRequest{r})
	assertSizes(t, &mu, &sizes, []int{1})
	if got := reg.Counter("serve.batch.flush_idle").Value(); got != 1 {
		t.Fatalf("flush_idle = %d, want 1", got)
	}
	if got := reg.Counter("serve.batch.flush_size").Value(); got != 0 {
		t.Fatalf("flush_size = %d, want 0", got)
	}
}

// TestBatcherQueuedRequestsFormBatch: requests that queue while a batch
// is pricing come out as the next batch, split at maxBatch.
func TestBatcherQueuedRequestsFormBatch(t *testing.T) {
	for _, tc := range []struct {
		queued int
		want   []int
	}{
		{3, []int{1, 3}},
		{4, []int{1, 4}},
		{10, []int{1, 4, 4, 2}},
	} {
		t.Run(fmt.Sprintf("queued=%d", tc.queued), func(t *testing.T) {
			var mu sync.Mutex
			var sizes []int
			gate := make(chan struct{})
			price, entered := gatedPrice(gate, &mu, &sizes)
			reg := telemetry.New()
			b := newBatcher(context.Background(), price, 4, 64, reg)
			defer b.close()
			reqs := queueBehindBlocker(t, b, entered, tc.queued)
			close(gate)
			awaitStrikes(t, reqs)
			assertSizes(t, &mu, &sizes, tc.want)
			full := int64(tc.queued / 4)
			if got := reg.Counter("serve.batch.flush_size").Value(); got != full {
				t.Fatalf("flush_size = %d, want %d", got, full)
			}
			if got := reg.Counter("serve.batch.flush_idle").Value(); got != int64(len(tc.want))-full {
				t.Fatalf("flush_idle = %d, want %d", got, int64(len(tc.want))-full)
			}
		})
	}
}

func TestBatcherQueueFull(t *testing.T) {
	gate := make(chan struct{})
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		<-gate
		return make([]risk.PriceOutcome, len(problems)), nil
	}
	b := newBatcher(context.Background(), price, 1, 2, telemetry.New())
	// First request flushes immediately and blocks the loop in the gated
	// price func; the next two fill the queue.
	first := &priceRequest{problem: batchProblem(90), done: make(chan priceResponse, 1)}
	if !b.submit(first) {
		t.Fatal("first submit rejected")
	}
	// Wait for the loop to pick up the first request so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	queued := []*priceRequest{}
	for len(queued) < 2 {
		r := &priceRequest{problem: batchProblem(91), done: make(chan priceResponse, 1)}
		if b.submit(r) {
			queued = append(queued, r)
		} else if time.Now().After(deadline) {
			t.Fatal("queue never accepted two requests")
		}
	}
	if b.submit(&priceRequest{problem: batchProblem(92), done: make(chan priceResponse, 1)}) {
		t.Fatal("submit accepted beyond queue capacity")
	}
	close(gate)
	b.close()
	for _, r := range append([]*priceRequest{first}, queued...) {
		select {
		case <-r.done:
		case <-time.After(5 * time.Second):
			t.Fatal("queued request dropped on close")
		}
	}
}

// TestBatcherShortPriceSlice feeds the batcher a PriceFunc that returns
// fewer outcomes than problems. Pre-fix the out-of-range index panicked
// the batcher goroutine, stranding every queued request; now the whole
// batch fails with a batch-level error and the loop keeps serving.
func TestBatcherShortPriceSlice(t *testing.T) {
	price := func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		return make([]risk.PriceOutcome, len(problems)-1), nil
	}
	b := newBatcher(context.Background(), price, 2, 64, telemetry.New())
	defer b.close()
	for round := 0; round < 2; round++ {
		reqs := make([]*priceRequest, 2)
		for i := range reqs {
			reqs[i] = &priceRequest{problem: batchProblem(float64(90 + i)), done: make(chan priceResponse, 1)}
			if !b.submit(reqs[i]) {
				t.Fatalf("round %d: submit %d rejected", round, i)
			}
		}
		for i, r := range reqs {
			select {
			case resp := <-r.done:
				if resp.err == nil {
					t.Fatalf("round %d request %d: want error for short outcome slice", round, i)
				}
			case <-time.After(5 * time.Second):
				// Round 2 hanging would mean the loop goroutine died on round 1.
				t.Fatalf("round %d request %d never answered", round, i)
			}
		}
	}
}

// TestBatcherCloseFlushesRemainder: close while a batch is pricing and
// more requests are queued behind it still answers every one of them,
// in the same batch shapes as without the close.
func TestBatcherCloseFlushesRemainder(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	gate := make(chan struct{})
	price, entered := gatedPrice(gate, &mu, &sizes)
	b := newBatcher(context.Background(), price, 4, 64, telemetry.New())
	reqs := queueBehindBlocker(t, b, entered, 6)
	closed := make(chan struct{})
	go func() {
		b.close()
		close(closed)
	}()
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close never returned")
	}
	awaitStrikes(t, reqs)
	assertSizes(t, &mu, &sizes, []int{1, 4, 2})
}
