package main

import (
	"context"
	"sync"
	"time"

	"riskbench/internal/farm"
	"riskbench/internal/nsp"
	"riskbench/internal/premia"
	"riskbench/internal/risk"
	"riskbench/internal/serve"
	"riskbench/internal/telemetry"
)

// The traced run's wrappers. Each one sits on a public seam of the
// program and times the calls crossing it from outside; none changes
// what the call does. End-to-end figures never come from a run that has
// them installed.

// priceSeam wraps the serving layer's Config.Price hook around the
// engine's own PriceBatch: it sees every micro-batch flush.
type priceSeam struct {
	mu      sync.Mutex
	seconds []float64
	probs   int
}

func (s *priceSeam) wrap(eng *risk.Engine) serve.PriceFunc {
	return func(ctx context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
		t0 := time.Now()
		out, err := eng.PriceBatch(ctx, problems)
		d := time.Since(t0).Seconds()
		s.mu.Lock()
		s.seconds = append(s.seconds, d)
		s.probs += len(problems)
		s.mu.Unlock()
		return out, err
	}
}

// farmProbe decorates a risk.FarmBackend: it times every farm round and
// reads the worker-stamped compute seconds off the results.
type farmProbe struct {
	inner risk.FarmBackend
	// wire, when set, also computes the nsp serial size of every task
	// the round ships as an object: backends pass objects by reference
	// in-process and serialize them lazily on the wire, so the size is
	// recomputed here. Tasks that already carry serialized bytes count
	// as they are.
	wire bool

	mu       sync.Mutex
	rounds   []float64 // round wall seconds
	capacity float64   // Σ workers × round wall
	tasks    int
	kernel   float64
	byMethod map[string]float64
	nspBytes int
	nspTasks int
}

func newFarmProbe(inner risk.FarmBackend, wire bool) *farmProbe {
	if inner == nil {
		inner = risk.LocalBackend{}
	}
	return &farmProbe{inner: inner, wire: wire, byMethod: map[string]float64{}}
}

// Run implements risk.FarmBackend.
func (p *farmProbe) Run(ctx context.Context, tasks []farm.Task, opts farm.Options, workers int) ([]farm.Result, error) {
	bytes, sized := 0, 0
	method := make(map[string]string, len(tasks))
	for _, t := range tasks {
		method[t.Name] = taskMethod(t)
		switch {
		case t.Data != nil:
			bytes += len(t.Data)
			sized++
		case p.wire && t.Obj != nil:
			if ser, err := nsp.Serialize(t.Obj); err == nil {
				bytes += len(ser.Data)
				sized++
			}
		}
	}
	t0 := time.Now()
	res, err := p.inner.Run(ctx, tasks, opts, workers)
	wall := time.Since(t0).Seconds()
	kernel := 0.0
	by := map[string]float64{}
	for _, r := range res {
		if secs, ok := farm.ResultField(r, "seconds"); ok {
			kernel += secs
			by[method[r.Name]] += secs
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rounds = append(p.rounds, wall)
	p.capacity += float64(workers) * wall
	p.tasks += len(tasks)
	p.kernel += kernel
	for _, m := range methodNames {
		p.byMethod[m] += by[m]
	}
	p.nspBytes += bytes
	p.nspTasks += sized
	return res, err
}

// taskMethod reads the premia method name off a task's problem, held
// either as an object or as its serialized bytes.
func taskMethod(t farm.Task) string {
	obj := t.Obj
	if obj == nil && t.Data != nil {
		o, err := nsp.SLoadBytes(t.Data).Unserialize()
		if err != nil {
			return ""
		}
		obj = o
	}
	h, ok := obj.(*nsp.Hash)
	if !ok {
		return ""
	}
	v, ok := h.Get("method")
	if !ok {
		return ""
	}
	if s, ok := v.(*nsp.SMat); ok && len(s.Data) == 1 {
		return s.Data[0]
	}
	return ""
}

// methodNames are the pricing methods the workloads exercise, in the
// order their premia.kernel_s.<method> metrics are reported.
var methodNames = []string{
	premia.MethodCFCall, premia.MethodCFPut,
	"FD_BrennanSchwartz", "FD_CrankNicolson", "MC_AM_LongstaffSchwartz", "MC_Basket", "MC_LocalVol",
}

// farmFigures fills the farm, premia and nsp per-layer metrics from
// the probe over a phase of the given wall time run at nw workers.
func (p *farmProbe) farmFigures(m map[string]float64, phaseWall float64, nw int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.rounds)
	m["farm.rounds"] = float64(n)
	if n == 0 {
		return
	}
	m["farm.round_ms"] = 1000 * median(append([]float64(nil), p.rounds...))
	m["farm.tasks_per_round"] = float64(p.tasks) / float64(n)
	if p.capacity > 0 {
		m["farm.overhead_share"] = 1 - p.kernel/p.capacity
	}
	m["premia.kernel_s"] = p.kernel
	if phaseWall > 0 {
		m["premia.kernel_share"] = p.kernel / (float64(nw) * phaseWall)
	}
	for _, meth := range methodNames {
		m["premia.kernel_s."+meth] = p.byMethod[meth]
	}
	if p.nspTasks > 0 {
		m["nsp.bytes_per_task"] = float64(p.nspBytes) / float64(p.nspTasks)
	}
}

// roundSeconds is the summed wall time of the probed farm rounds.
func (p *farmProbe) roundSeconds() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sum(p.rounds)
}

// unixBackend is a farm on a hub world over unix sockets with one
// worker goroutine per farm worker, the `riskserver -transport unix`
// shape: every task is serialized, framed and sent to its worker as it
// would be to a cluster node. spawns, when set, times the workers' dial
// and join.
func unixBackend(spawns *spawnProbe) risk.FarmBackend {
	spawn := risk.GoNetWorkers(nil, 0)
	if spawns != nil {
		spawn = spawns.wrap(spawn)
	}
	return &risk.NetBackend{Transport: "unix", Spawn: spawn}
}

// spawnProbe wraps risk.NetBackend.Spawn: the call covers dialing the
// hub (the handshake completes as the hub accepts), and the wait it
// returns is the join of the round's workers.
type spawnProbe struct {
	mu    sync.Mutex
	spawn []float64
	join  []float64
}

func (s *spawnProbe) wrap(inner func(transport, addr string, workers int) (func() error, error)) func(transport, addr string, workers int) (func() error, error) {
	return func(transport, addr string, workers int) (func() error, error) {
		t0 := time.Now()
		wait, err := inner(transport, addr, workers)
		d := time.Since(t0).Seconds()
		s.mu.Lock()
		s.spawn = append(s.spawn, d)
		s.mu.Unlock()
		if err != nil || wait == nil {
			return wait, err
		}
		return func() error {
			t0 := time.Now()
			err := wait()
			d := time.Since(t0).Seconds()
			s.mu.Lock()
			s.join = append(s.join, d)
			s.mu.Unlock()
			return err
		}, nil
	}
}

func (s *spawnProbe) figures(m map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["mpi.spawn_ms"] = 1000 * median(append([]float64(nil), s.spawn...))
	m["mpi.join_ms"] = 1000 * median(append([]float64(nil), s.join...))
}

// counterReads are the registry counters the traced run reads back, as
// differences over the traced phase.
var counterReads = []string{
	"serve.cache.hits", "serve.cache.misses", "serve.cache.evictions",
	"farm.retries", "farm.task_errors", "mpi.msgs_sent",
}

// registryMark is a snapshot of the counters and of the farm queue-wait
// histogram's count and sum.
type registryMark struct {
	counters           map[string]int64
	waitCount, waitSum float64
}

func markRegistry(reg *telemetry.Registry) registryMark {
	m := registryMark{counters: map[string]int64{}}
	for _, name := range counterReads {
		m.counters[name] = reg.Counter(name).Value()
	}
	h := reg.Histogram("farm.queue_wait_seconds")
	m.waitCount, m.waitSum = float64(h.Count()), h.Sum()
	return m
}

// registryFigures fills the read-back per-layer metrics from the
// change between two marks. tasks is the number of farm tasks the
// phase ran, for the per-task message count.
func registryFigures(m map[string]float64, before, after registryMark, tasks int) {
	d := func(name string) float64 { return float64(after.counters[name] - before.counters[name]) }
	hits, misses := d("serve.cache.hits"), d("serve.cache.misses")
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["serve.cache_evictions"] = d("serve.cache.evictions")
	m["farm.retries"] = d("farm.retries")
	m["farm.task_errors"] = d("farm.task_errors")
	if n := after.waitCount - before.waitCount; n > 0 {
		m["farm.queue_wait_ms"] = 1000 * (after.waitSum - before.waitSum) / n
	}
	if tasks > 0 {
		m["mpi.msgs_per_task"] = d("mpi.msgs_sent") / float64(tasks)
	}
}
