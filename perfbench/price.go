package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"riskbench/internal/mpi"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	"riskbench/internal/telemetry"
)

// nominalRate is the fixed open-loop rate both price workloads report
// latency at: below the knee of either deployment shape on a 2-CPU
// machine, and busy enough that the batcher's 2 ms timer rarely fires
// from idle processors, whose wake-up is coarse.
const nominalRate = 8000

// rampFactor and bisections shape the max_rps search: the offered rate
// grows by rampFactor from nominalRate until a step misses the limit,
// then the bracket is bisected (geometrically) this many times.
const (
	rampFactor = 1.5
	bisections = 3
	maxRate    = 200000
)

// priceServer is one pricing service built like cmd/riskserver's
// defaults, plus the probes of a traced run (nil when untraced).
type priceServer struct {
	srv    *serve.Server
	reg    *telemetry.Registry
	seam   *priceSeam
	farm   *farmProbe
	spawns *spawnProbe
}

// newPriceServer builds the service for the given farm transport
// ("local" or "unix"): workers = nproc, batch 16, 2 ms max delay,
// the default cache size and 256 inflight requests.
func newPriceServer(transport string, traced bool) *priceServer {
	reg := telemetry.New()
	premia.SetTelemetry(reg)
	mpi.SetTelemetry(reg)
	ps := &priceServer{reg: reg}
	var backend risk.FarmBackend
	if transport == "unix" {
		if traced {
			ps.spawns = &spawnProbe{}
		}
		backend = unixBackend(ps.spawns)
	}
	if traced {
		ps.farm = newFarmProbe(backend, transport == "unix")
		backend = ps.farm
	}
	eng := &risk.Engine{Workers: runtime.GOMAXPROCS(0), BatchSize: 16, Telemetry: reg, Backend: backend}
	cfg := serve.Config{
		Engine:         eng,
		MaxBatch:       16,
		MaxDelay:       2 * time.Millisecond,
		CacheSize:      serve.DefaultCacheSize,
		MaxInflight:    256,
		RequestTimeout: 30 * time.Second,
		Telemetry:      reg,
	}
	if traced {
		ps.seam = &priceSeam{}
		cfg.Price = ps.seam.wrap(eng)
	}
	ps.srv = serve.New(cfg)
	return ps
}

// warm prices every hot instrument once, concurrently so they batch, to
// fill the cache and run every code path of a request once.
func (ps *priceServer) warm(gen *requestGen) error {
	out := make([]outcome, len(gen.hot))
	var wg sync.WaitGroup
	wg.Add(len(gen.hot))
	now := time.Now()
	for i, inst := range gen.hot {
		go func() {
			defer wg.Done()
			send(ps.srv.Handler(), inst, now, &out[i])
		}()
	}
	wg.Wait()
	for i, inst := range gen.hot {
		if err := checkOutcome(inst, &out[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (ps *priceServer) close() {
	_ = ps.srv.Close()
	premia.SetTelemetry(nil)
	mpi.SetTelemetry(nil)
}

// checkOutcome compares one answer with the benchmark's own pricing of
// the same problem, bit for bit.
func checkOutcome(inst instrument, o *outcome) error {
	if o.status != http.StatusOK || !o.ok {
		return fmt.Errorf("status %d", o.status)
	}
	want, err := inst.expectedPrice()
	if err != nil {
		return err
	}
	if math.Float64bits(o.price) != math.Float64bits(want) {
		return fmt.Errorf("price %v, want %v", o.price, want)
	}
	return nil
}

// The gated measurement is `segments` rounds of a fixed-rate segment
// followed by a closed-loop saturation window. Spreading both over the
// whole run keeps a spell of contention on a shared machine to a
// minority of the windows the quartiles are taken over. Lengths are
// shares of --seconds.
const (
	segments   = 24
	fixedShare = 0.3 / segments
	satShare   = 0.5 / segments
	// stepShare is the length of each step of the (ungated) knee search.
	stepShare = 0.015
	// satClients is the closed-loop concurrency: half of MaxInflight, so
	// saturation never turns into shedding.
	satClients = 128
	// window is the number of consecutive fixed-rate requests per
	// latency window (1/8 s at the nominal rate); a window's p99 rests on
	// 10 samples beyond it. The p99 over all the fixed-rate requests is
	// printed beside the window figures.
	window = 1000
	// betterQuartile picks the gated latency from the better quarter of
	// its windows: contention from other tenants of a shared host makes
	// a window slower, never faster, so the lower quartile of the window
	// latencies follows the program and not the neighbours.
	betterQuartile = 0.25
)

// priceRun is the record of one pass of a price workload.
type priceRun struct {
	gen    *requestGen
	next   int64    // next request index
	fixed  []*phase // the fixed-rate segments, answers kept
	sat    []*phase // the saturation windows
	steps  []*phase // the knee search
	passed []bool
	maxRPS float64
	rssMB  float64 // peak RSS after the gated phases
	tally
}

// tally counts the checked answers of a run: every answer must be a
// 200 whose price is bit-equal to the benchmark's own pricing of the
// problem, or a 429. A 429 is the server refusing load by design (a
// stall of the host can fill the inflight slots even at the nominal
// rate); it is not a wrong answer, but it misses every latency limit.
type tally struct {
	attempted, failed int
	refused           int // 429s in the gated phases
	shed              int // 429s in the knee search
}

func (r *priceRun) drive(h http.Handler, rate float64, dur time.Duration) *phase {
	p := drive(h, r.gen, r.next, rate, dur)
	r.next += int64(len(p.out))
	return p
}

// settle checks a finished phase's answers into the run's tally and
// records its size and met share. Unless keep is set it then drops the
// answers, so the harness's own records stay small beside the server's
// memory in peak RSS.
func (r *priceRun) settle(p *phase, knee, keep bool) {
	p.n, p.met = len(p.out), metShare(p.out)
	for j := range p.out {
		o := &p.out[j]
		r.attempted++
		switch {
		case o.status == http.StatusTooManyRequests && knee:
			r.shed++
		case o.status == http.StatusTooManyRequests:
			r.refused++
		default:
			inst, _ := r.gen.request(o.idx)
			if checkOutcome(inst, o) != nil {
				r.failed++
			}
		}
	}
	if !keep {
		p.out = nil
	}
}

func share(seconds, s float64) time.Duration {
	return time.Duration(s * seconds * float64(time.Second))
}

// fixedOut returns every outcome of the fixed-rate segments.
func (r *priceRun) fixedOut() []outcome {
	var out []outcome
	for _, p := range r.fixed {
		out = append(out, p.out...)
	}
	return out
}

// satRPS is the completed requests per second over all the
// saturation windows. Saturation throughput swings from window to
// window by itself (the batcher flushes one round at a time), so the
// pooled rate is steadier than any one quantile of the windows.
func (r *priceRun) satRPS() float64 {
	n, wall := 0, 0.0
	for _, p := range r.sat {
		n += p.n
		wall += p.wall
	}
	return float64(n) / wall
}

// fixedLatency is the lower quartile over the fixed-rate windows of
// each window's q-quantile latency, in seconds.
func (r *priceRun) fixedLatency(q float64) float64 {
	var xs []float64
	for _, p := range r.fixed {
		lat := latencies(p.out)
		for i := 0; i+window <= len(lat) || i == 0; i += window {
			xs = append(xs, quantile(lat[i:min(i+window, len(lat))], q))
		}
	}
	return quantile(xs, betterQuartile)
}

// measure runs the gated segments and, when knee is set, the max_rps
// search against h.
func (r *priceRun) measure(h http.Handler, seconds float64, knee bool) error {
	for i := 0; i < segments; i++ {
		f := r.drive(h, nominalRate, share(seconds, fixedShare))
		r.settle(f, false, true)
		r.fixed = append(r.fixed, f)
		var p *phase
		p, r.next = closedLoop(h, r.gen, r.next, satClients, share(seconds, satShare))
		r.settle(p, false, false)
		r.sat = append(r.sat, p)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.rssMB = rss
	if knee {
		r.searchKnee(h, share(seconds, stepShare))
	}
	return nil
}

// stepPasses is the max_rps criterion: at least 99% of the requests
// sent succeed within the limit, and so do 99% of the last quarter (a
// growing backlog shows there first).
func stepPasses(p *phase) bool {
	n := len(p.out)
	tail := n - n/4
	met, metTail := 0, 0
	for j := range p.out {
		if p.out[j].met() {
			met++
			if j >= tail {
				metTail++
			}
		}
	}
	return float64(met) >= 0.99*float64(n) && float64(metTail) >= 0.99*float64(n-tail)
}

// searchKnee finds max_rps: the offered rate grows by rampFactor from
// nominalRate until a step misses the limit, then the bracket is
// bisected geometrically.
func (r *priceRun) searchKnee(h http.Handler, step time.Duration) {
	try := func(rate float64) bool {
		p := r.drive(h, rate, step)
		ok := stepPasses(p)
		r.settle(p, true, false)
		r.steps = append(r.steps, p)
		r.passed = append(r.passed, ok)
		return ok
	}
	pass, fail := 0.0, 0.0
	for rate := float64(nominalRate); rate <= maxRate; rate *= rampFactor {
		if !try(rate) {
			fail = rate
			break
		}
		pass = rate
	}
	if fail > 0 && pass > 0 {
		for i := 0; i < bisections; i++ {
			mid := math.Sqrt(pass * fail)
			if try(mid) {
				pass = mid
			} else {
				fail = mid
			}
		}
	}
	r.maxRPS = pass
}

// topRate is the highest rate the run offered, or the saturation rate
// when no knee search ran.
func (r *priceRun) topRate() float64 {
	top := r.satRPS()
	for _, p := range r.steps {
		top = math.Max(top, p.rate)
	}
	return top
}

// latencies returns the outcomes' latencies in seconds, a failed
// request counting as an infinite one.
func latencies(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for j := range out {
		if out[j].status == http.StatusOK && out[j].ok {
			xs[j] = float64(out[j].latency)
		} else {
			xs[j] = math.Inf(1)
		}
	}
	return xs
}

func lateness(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for j := range out {
		xs[j] = float64(out[j].late)
	}
	return xs
}

// priceWorkload runs price-local or price-unix.
func priceWorkload(transport string, o opts, rep *report) error {
	gen := newRequestGen(o.seed)
	if o.trace {
		return priceTraced(transport, gen, o, rep)
	}
	// Set-up: build the service and warm it, setupRepeats times over;
	// the last one serves the measurement.
	var ps *priceServer
	var setups setupTimes
	for i := 0; i < setupRepeats; i++ {
		if ps != nil {
			ps.close()
		}
		done := setups.start()
		ps = newPriceServer(transport, false)
		if err := ps.warm(gen); err != nil {
			ps.close()
			return err
		}
		done()
	}
	run := &priceRun{gen: gen}
	err := run.measure(ps.srv.Handler(), o.seconds, true)
	ps.close()
	if err != nil {
		return err
	}
	// The generator check: the top offered rate against a handler that
	// does nothing.
	top := run.topRate()
	noop := drive(noopHandler{}, gen, 0, top, share(o.seconds, stepShare))

	fixed := run.fixedOut()
	late := lateness(fixed)
	rep.attempted, rep.failed = run.attempted, run.failed
	rep.setup(setups)
	rep.e2e["peak_rss_mb"] = run.rssMB
	rep.e2e["p50_ms"] = 1000 * run.fixedLatency(0.50)
	rep.e2e["throughput"] = run.satRPS()
	rep.printf("%s: p50_ms=%.4f at %d req/s open loop (lower quartile of %d windows of %d; samples=%d); same windows, ungated: p90_ms=%.4f p99_ms=%.4f",
		transport, rep.e2e["p50_ms"], nominalRate, len(late)/window, window, len(late), 1000*run.fixedLatency(0.90), 1000*run.fixedLatency(0.99))
	all := latencies(fixed)
	rep.printf("%s: over all fixed-rate requests, ungated: p50_ms=%.4f p90_ms=%.4f p99_ms=%.4f p99.9_ms=%.4f",
		transport, 1000*quantile(all, 0.5), 1000*quantile(all, 0.9), 1000*quantile(all, 0.99), 1000*quantile(all, 0.999))
	rep.printf("%s: throughput=%.1f req/s at saturation, closed loop, %d clients (pooled over %d windows; samples=%d)",
		transport, run.satRPS(), satClients, segments, samples(run.sat))
	rep.printf("%s: max_rps=%.0f req/s open loop, 99%% within %.0f ms (ungated; %d steps of %v, 429s=%d)",
		transport, run.maxRPS, 1000*sloSeconds, len(run.steps), share(o.seconds, stepShare), run.shed)
	for i, p := range run.steps {
		rep.printf("  step %2d: %8.0f req/s  met=%.4f  pass=%v", i, p.rate, p.met, run.passed[i])
	}
	rep.printf("loadgen: gen_late_ms p50=%.4f p99=%.4f max=%.4f (fixed-rate segments, samples=%d)",
		1000*quantile(late, 0.5), 1000*quantile(late, 0.99), 1000*quantile(late, 1), len(late))
	noopLate := lateness(noop.out)
	rep.printf("loadgen: no-op handler at %.0f req/s: met=%.4f gen_late_ms p99=%.4f (samples=%d)",
		top, metShare(noop.out), 1000*quantile(noopLate, 0.99), len(noopLate))
	rep.printf("checks: %d answers compared bit for bit with premia Compute, %d failed; 429s: %d in the gated phases, %d in the knee search",
		run.attempted, run.failed, run.refused, run.shed)
	return nil
}

// priceTraced is the traced run: the gated phases once on a plain
// service, then every phase on a service with all probes installed.
// Per-layer figures come from the second pass; the two passes' p50
// give the tracing overhead.
func priceTraced(transport string, gen *requestGen, o opts, rep *report) error {
	plain := newPriceServer(transport, false)
	if err := plain.warm(gen); err != nil {
		plain.close()
		return err
	}
	base := &priceRun{gen: gen}
	err := base.measure(plain.srv.Handler(), o.seconds, false)
	plain.close()
	if err != nil {
		return err
	}

	ps := newPriceServer(transport, true)
	if err := ps.warm(gen); err != nil {
		ps.close()
		return err
	}
	before := markRegistry(ps.reg)
	traced := &priceRun{gen: gen, next: base.next}
	t0 := time.Now()
	err = traced.measure(ps.srv.Handler(), o.seconds, true)
	wall := time.Since(t0).Seconds()
	after := markRegistry(ps.reg)
	ps.close()
	if err != nil {
		return err
	}

	rep.attempted = base.attempted + traced.attempted
	rep.failed = base.failed + traced.failed

	m := rep.layers
	// Handler times of the fixed-rate segments, which p50 comes from,
	// split by the answer's cached flag.
	var hit, miss []float64
	for _, o := range traced.fixedOut() {
		if o.status != http.StatusOK {
			continue
		}
		if o.cached {
			hit = append(hit, float64(o.handler))
		} else {
			miss = append(miss, float64(o.handler))
		}
	}
	m["serve.hit_ms"] = 1000 * median(hit)
	m["serve.miss_ms"] = 1000 * median(miss)
	m["serve.shed"] = float64(traced.refused + traced.shed)
	ps.seam.mu.Lock()
	flushes := len(ps.seam.seconds)
	if flushes > 0 {
		m["serve.flush_size"] = float64(ps.seam.probs) / float64(flushes)
		m["risk.price_batch_ms"] = 1000 * median(append([]float64(nil), ps.seam.seconds...))
	}
	ps.seam.mu.Unlock()
	ps.farm.farmFigures(m, wall, runtime.GOMAXPROCS(0))
	ps.farm.mu.Lock()
	tasks := ps.farm.tasks
	ps.farm.mu.Unlock()
	if flushes > 0 {
		m["risk.farmed_per_flush"] = float64(tasks) / float64(flushes)
	}
	registryFigures(m, before, after, tasks)
	if ps.spawns != nil {
		ps.spawns.figures(m)
	}
	m["loadgen.late_p99_ms"] = 1000 * quantile(lateness(traced.fixedOut()), 0.99)
	p50 := func(r *priceRun) float64 { return r.fixedLatency(0.5) }
	m["telemetry.trace_overhead"] = p50(traced)/p50(base) - 1
	rep.printf("%s traced: p50_ms %.4f untraced vs %.4f traced; throughput %.1f vs %.1f; traced max_rps %.0f",
		transport, 1000*p50(base), 1000*p50(traced), base.satRPS(), traced.satRPS(), traced.maxRPS)
	rep.printf("%s traced: %.4f of fixed-rate answers were cached (serve.cache_hit_ratio counts lookups: a miss is looked up by the server, by its flight leader and by PriceBatch)",
		transport, float64(len(hit))/float64(len(hit)+len(miss)))
	return nil
}

func samples(ps []*phase) int {
	n := 0
	for _, p := range ps {
		n += p.n
	}
	return n
}

func metShare(out []outcome) float64 {
	met := 0
	for j := range out {
		if out[j].met() {
			met++
		}
	}
	return float64(met) / float64(len(out))
}
