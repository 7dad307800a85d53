package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"riskbench/internal/bench"
	"riskbench/internal/farm"
	"riskbench/internal/portfolio"
	"riskbench/internal/telemetry"
)

// The cluster-sim workload replays the paper's two books on the
// simulated cluster with serialized load and batch 1: the realistic
// 7931-claim book (compute-bound, Table III) and the 10000-vanilla toy
// book (communication-bound, Table II), each on the 2-CPU baseline, a
// flat 512-CPU farm and a hierarchical one (8 sub-masters, chunks of
// 32). The books are fixed by the paper, so this workload ignores the
// seed; the simulator is deterministic, so its speed-up ratios repeat
// exactly and only the wall time varies.

type simConfig struct {
	name string
	cpus int
	hier bool
}

var simConfigs = []simConfig{
	{"2cpu", 2, false},
	{"512cpu-flat", 512, false},
	{"512cpu-hier", 512, true},
}

type simBook struct {
	name  string
	tasks []farm.Task
}

func simBooks() ([]simBook, error) {
	var books []simBook
	for _, b := range []struct {
		name string
		pf   *portfolio.Portfolio
	}{{"realistic", portfolio.Realistic()}, {"toy", portfolio.Toy(10000)}} {
		tasks, err := b.pf.Tasks()
		if err != nil {
			return nil, fmt.Errorf("%s book: %w", b.name, err)
		}
		books = append(books, simBook{b.name, tasks})
	}
	return books, nil
}

// simRun is one simulated run's outcome.
type simRun struct {
	makespan   float64
	wall       float64
	masterBusy float64 // share of the makespan (flat runs)
	workerUtil float64 // mean worker utilization (flat runs)
	ok         bool    // one result per task, no task errors
}

func runSim(ctx context.Context, tasks []farm.Task, c simConfig) (simRun, error) {
	reg := telemetry.New()
	rc := bench.RunConfig{Tasks: tasks, CPUs: c.cpus, Strategy: farm.SerializedLoad, BatchSize: 1, Telemetry: reg}
	var r simRun
	t0 := time.Now()
	// Every task result reaches the master that dispatched it; in the
	// hierarchy a sub-master collects it and then the root does, so the
	// completion counter sees each task once per level.
	levels := int64(1)
	if c.hier {
		rc.Scheduler, rc.Groups, rc.Chunk = bench.Hierarchical, 8, 32
		levels = 2
		mk, err := bench.Run(ctx, rc)
		if err != nil {
			return r, err
		}
		r.makespan = mk
	} else {
		st, err := bench.RunWithStats(ctx, rc)
		if err != nil {
			return r, err
		}
		r.makespan, r.workerUtil = st.Makespan, st.MeanUtilization
		if st.Makespan > 0 {
			r.masterBusy = st.MasterBusy / st.Makespan
		}
	}
	r.wall = time.Since(t0).Seconds()
	r.ok = reg.Counter("farm.tasks_completed").Value() == levels*int64(len(tasks)) &&
		reg.Counter("farm.task_errors").Value() == 0
	return r, nil
}

// sweep is one pass over every book and configuration.
type sweep struct {
	runs  map[string]simRun // "<book>/<config>"
	wall  float64
	tasks int
}

// runSweep runs every configuration of every book, nproc simulated
// runs at a time. A simulation is single-threaded; running them side by
// side keeps every processor busy, and a shared host's hypervisor
// deschedules a busy virtual CPU far less than one that idles and wakes.
func runSweep(ctx context.Context, books []simBook) (*sweep, error) {
	type job struct {
		book simBook
		c    simConfig
	}
	var jobs []job
	for _, b := range books {
		for _, c := range simConfigs {
			jobs = append(jobs, job{b, c})
		}
	}
	runs := make([]simRun, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				runs[i], errs[i] = runSim(ctx, jobs[i].book.tasks, jobs[i].c)
			}
		}()
	}
	wg.Wait()
	s := &sweep{runs: map[string]simRun{}, wall: time.Since(t0).Seconds()}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s book, %s: %w", j.book.name, j.c.name, errs[i])
		}
		s.runs[j.book.name+"/"+j.c.name] = runs[i]
		s.tasks += len(j.book.tasks)
	}
	return s, nil
}

// ratio is the paper's speed-up ratio T(2)/((n-1)·T(n)) of one book's
// configuration against its 2-CPU baseline.
func (s *sweep) ratio(book string, c simConfig) float64 {
	return s.runs[book+"/2cpu"].makespan / (float64(c.cpus-1) * s.runs[book+"/"+c.name].makespan)
}

// ratios are the four reported speed-up ratios, by metric suffix.
func (s *sweep) ratios() map[string]float64 {
	return map[string]float64{
		"flat":     s.ratio("realistic", simConfigs[1]),
		"hier":     s.ratio("realistic", simConfigs[2]),
		"flat_toy": s.ratio("toy", simConfigs[1]),
		"hier_toy": s.ratio("toy", simConfigs[2]),
	}
}

var ratioNames = []string{"flat", "hier", "flat_toy", "hier_toy"}

// check counts the sweep's simulated runs and those that failed: a run
// fails when it lost or duplicated a task result, or when its makespan
// differs from the first sweep's (the simulator is deterministic).
func (s *sweep) check(first *sweep) (attempted, failed int) {
	for _, b := range []string{"realistic", "toy"} {
		for _, c := range simConfigs {
			key := b + "/" + c.name
			attempted++
			if !s.runs[key].ok || math.Float64bits(s.runs[key].makespan) != math.Float64bits(first.runs[key].makespan) {
				failed++
			}
		}
	}
	return attempted, failed
}

func clusterWorkload(ctx context.Context, o opts, rep *report) error {
	var books []simBook
	var setups setupTimes
	for i := 0; i < setupRepeats; i++ {
		done := setups.start()
		var err error
		if books, err = simBooks(); err != nil {
			return err
		}
		done()
	}
	if o.trace {
		return clusterTraced(ctx, books, rep)
	}
	var sweeps []*sweep
	elapsed := 0.0
	for len(sweeps) == 0 || elapsed+sweeps[len(sweeps)-1].wall <= o.seconds {
		s, err := runSweep(ctx, books)
		if err != nil {
			return err
		}
		sweeps = append(sweeps, s)
		elapsed += s.wall
	}
	var walls []float64
	tasks := 0
	for _, s := range sweeps {
		a, f := s.check(sweeps[0])
		rep.attempted += a
		rep.failed += f
		walls = append(walls, s.wall)
		tasks += s.tasks
	}
	rep.setup(setups)
	rep.e2e["p50_ms"] = 1000 * median(walls)
	rep.e2e["throughput"] = float64(tasks) / elapsed
	r := sweeps[0].ratios()
	for _, n := range ratioNames {
		rep.printf("cluster-sim: sim_ratio_%s=%.4f (ratio, deterministic)", n, r[n])
	}
	rep.printf("cluster-sim: sim_wall_s=%.4f s per sweep of %d simulated runs (median of %d sweeps); %.0f simulated tasks/s",
		rep.e2e["p50_ms"]/1000, 2*len(simConfigs), len(sweeps), rep.e2e["throughput"])
	rep.printf("checks: %d simulated runs, %d failed (one result per task, makespans repeat)", rep.attempted, rep.failed)
	return nil
}

// clusterTraced reads the occupancy figures and ratios of one sweep.
// The benchmark installs no probe here: the simulator's registry, which
// the output check reads, is on in the untraced run too, so the
// tracing overhead is zero by construction.
func clusterTraced(ctx context.Context, books []simBook, rep *report) error {
	s, err := runSweep(ctx, books)
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = s.check(s)
	m := rep.layers
	flat := s.runs["realistic/512cpu-flat"]
	m["sim.master_busy"], m["sim.worker_util"] = flat.masterBusy, flat.workerUtil
	flatToy := s.runs["toy/512cpu-flat"]
	m["sim.master_busy_toy"], m["sim.worker_util_toy"] = flatToy.masterBusy, flatToy.workerUtil
	r := s.ratios()
	for _, n := range ratioNames {
		m["sim.ratio_"+n] = r[n]
	}
	m["telemetry.trace_overhead"] = 0
	rep.printf("cluster-sim traced: one sweep in %.3f s; no probe installed, trace overhead 0", s.wall)
	return nil
}
