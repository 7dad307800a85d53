package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"riskbench/internal/mpi"
	"riskbench/internal/portfolio"
	"riskbench/internal/risk"
	"riskbench/internal/telemetry"
	varisk "riskbench/internal/var"
)

// The book-reval workload: the paper's overnight batch. Full
// revaluation VaR over the realistic book, every claim repriced under
// the base market and each scenario, with no result cache, on a farm
// whose tasks cross the mpi wire as nsp serials.
const (
	// bookEffort scales the book's paths and steps (portfolio.ScaleEffort)
	// so one report takes seconds, not hours, with the paper's claim mix.
	bookEffort = 1e-3
	// bookScenarios is the number of seeded DefaultMarket scenarios
	// priced next to the base; each adds one repricing of all 7931
	// claims.
	bookScenarios = 1
)

var bookVaR = varisk.Config{Alphas: []float64{0.95, 0.99}}

// bookInputs builds the scaled book and the seeded scenarios. It
// returns the scenario generation time separately.
func bookInputs(ctx context.Context, seed uint64) (*portfolio.Portfolio, []risk.Scenario, float64, error) {
	pf := portfolio.Realistic()
	if err := pf.ScaleEffort(bookEffort); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	scens, err := varisk.DefaultMarket().GenerateParallel(ctx, bookScenarios, scenarioSeed(seed), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, 0, err
	}
	gen := time.Since(t0).Seconds()
	// Price one claim of every method once, so the first report does not
	// pay for lazily built kernel state.
	seen := map[string]bool{}
	for _, it := range pf.Items {
		if seen[it.Problem.Method] {
			continue
		}
		seen[it.Problem.Method] = true
		if _, err := it.Problem.Compute(); err != nil {
			return nil, nil, 0, fmt.Errorf("warm-up %s: %w", it.Name, err)
		}
	}
	return pf, scens, gen, nil
}

func bookEngine(workers int, backend risk.FarmBackend) risk.Engine {
	return risk.Engine{Workers: workers, BatchSize: 16, KernelThreads: 1, Telemetry: telemetry.New(), Backend: backend}
}

// sameReport reports whether two VaR reports agree bit for bit.
func sameReport(a, b *varisk.Report) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.BaseValue, b.BaseValue) || len(a.PnLs) != len(b.PnLs) || len(a.Estimates) != len(b.Estimates) ||
		len(a.Components) != len(b.Components) || !eq(a.ComponentTotal, b.ComponentTotal) {
		return false
	}
	for i := range a.PnLs {
		if !eq(a.PnLs[i], b.PnLs[i]) {
			return false
		}
	}
	for i := range a.Estimates {
		if !eq(a.Estimates[i].VaR, b.Estimates[i].VaR) || !eq(a.Estimates[i].CVaR, b.Estimates[i].CVaR) {
			return false
		}
	}
	for i := range a.Components {
		if a.Components[i].Name != b.Components[i].Name || !eq(a.Components[i].Contribution, b.Components[i].Contribution) {
			return false
		}
	}
	return true
}

// timedReport runs one FullReval and returns it with its wall time.
func timedReport(ctx context.Context, eng risk.Engine, pf *portfolio.Portfolio, scens []risk.Scenario) (*varisk.Report, float64, error) {
	t0 := time.Now()
	rep, err := varisk.FullReval(ctx, eng, pf, scens, bookVaR)
	return rep, time.Since(t0).Seconds(), err
}

func bookWorkload(ctx context.Context, o opts, rep *report) error {
	nw := runtime.GOMAXPROCS(0)
	var (
		pf     *portfolio.Portfolio
		scens  []risk.Scenario
		setups setupTimes
		gen    []float64
	)
	for i := 0; i < setupRepeats; i++ {
		done := setups.start()
		var g float64
		var err error
		pf, scens, g, err = bookInputs(ctx, o.seed)
		if err != nil {
			return err
		}
		done()
		gen = append(gen, g)
	}
	repricings := (len(scens) + 1) * pf.Size()
	if o.trace {
		return bookTraced(ctx, pf, scens, median(gen), rep)
	}

	// Timed region: whole reports until the run length is used up. A
	// report takes about half of a 20 s run on 2 CPUs, so the median
	// usually rests on two reports rather than one.
	var reports []*varisk.Report
	var walls []float64
	for elapsed := 0.0; elapsed < o.seconds; {
		r, wall, err := timedReport(ctx, bookEngine(nw, unixBackend(nil)), pf, scens)
		if err != nil {
			return err
		}
		reports = append(reports, r)
		walls = append(walls, wall)
		elapsed += wall
	}
	total := sum(walls)

	// Outside the timed region: the reference report at another worker
	// count, which the farm's shard-order merge makes bit-identical.
	ref, _, err := timedReport(ctx, bookEngine(nw+1, unixBackend(nil)), pf, scens)
	if err != nil {
		return err
	}
	rep.attempted = len(reports) + 1
	for _, r := range append(reports, ref) {
		if !sameReport(r, reports[0]) {
			rep.failed++
		}
	}
	rep.setup(setups)
	rep.e2e["p50_ms"] = 1000 * median(walls)
	rep.e2e["throughput"] = float64(repricings*len(walls)) / total
	rep.printf("book-reval: %d claims x (base + %d scenarios) = %d repricings per report, %d workers, effort x%g",
		pf.Size(), len(scens), repricings, nw, bookEffort)
	rep.printf("book-reval: repricings_per_s=%.2f over %d reports in %.3f s; report latency p50_ms=%.1f (samples=%d)",
		rep.e2e["throughput"], len(walls), total, rep.e2e["p50_ms"], len(walls))
	e := reports[0].Estimates
	rep.printf("book-reval: VaR99=%.6g CVaR99=%.6g; reference at %d workers bit-identical: %v; %d of %d reports failed the check",
		e[len(e)-1].VaR, e[len(e)-1].CVaR, nw+1, sameReport(ref, reports[0]), rep.failed, rep.attempted)
	return nil
}

// bookTraced runs one report untraced, one through the farm probe, and
// the reference at another worker count; all three must agree.
func bookTraced(ctx context.Context, pf *portfolio.Portfolio, scens []risk.Scenario, genSeconds float64, rep *report) error {
	nw := runtime.GOMAXPROCS(0)
	base, plainWall, err := timedReport(ctx, bookEngine(nw, unixBackend(nil)), pf, scens)
	if err != nil {
		return err
	}
	spawns := &spawnProbe{}
	probe := newFarmProbe(unixBackend(spawns), true)
	eng := bookEngine(nw, probe)
	mpi.SetTelemetry(eng.Telemetry)
	before := markRegistry(eng.Telemetry)
	traced, wall, err := timedReport(ctx, eng, pf, scens)
	after := markRegistry(eng.Telemetry)
	mpi.SetTelemetry(nil)
	if err != nil {
		return err
	}
	ref, _, err := timedReport(ctx, bookEngine(nw+1, unixBackend(nil)), pf, scens)
	if err != nil {
		return err
	}
	rep.attempted = 3
	for _, r := range []*varisk.Report{traced, ref} {
		if !sameReport(r, base) {
			rep.failed++
		}
	}
	m := rep.layers
	probe.farmFigures(m, wall, nw)
	probe.mu.Lock()
	tasks := probe.tasks
	probe.mu.Unlock()
	registryFigures(m, before, after, tasks)
	spawns.figures(m)
	m["var.self_s"] = wall - probe.roundSeconds()
	m["var.scenario_gen_s"] = genSeconds
	m["telemetry.trace_overhead"] = wall/plainWall - 1
	rep.printf("book-reval traced: report %.3f s untraced vs %.3f s traced; %d farm rounds, %d tasks",
		plainWall, wall, len(probe.rounds), tasks)
	return nil
}
