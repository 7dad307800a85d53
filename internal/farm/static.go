package farm

import (
	"context"
	"fmt"

	"riskbench/internal/mpi"
	"riskbench/internal/telemetry"
)

// RunStaticMaster is the ablation baseline for the Robin-Hood scheduler:
// tasks are assigned to workers round-robin up front, and a worker only
// ever receives its own pre-assigned tasks (one outstanding at a time, no
// stealing). With heterogeneous task costs this strands work on slow
// queues, which is exactly what the paper's dynamic strategy avoids.
// Cancellation follows RunMaster: drain in-flight batches, stop the
// workers, return ctx.Err().
func RunStaticMaster(ctx context.Context, c mpi.Comm, tasks []Task, loader Loader, opts Options) ([]Result, error) {
	nw := c.Size() - 1
	if nw < 1 {
		return nil, fmt.Errorf("farm: world of size %d has no workers", c.Size())
	}
	if err := validateTasks(tasks); err != nil {
		return nil, err
	}
	batches := splitBatches(tasks, opts.batchSize())
	queues := make([][][]Task, nw)
	for i, b := range batches {
		q := i % nw
		queues[q] = append(queues[q], b)
	}
	pos := make([]int, nw)
	inflight := 0
	var results []Result
	if ctx.Err() == nil {
		for w := 0; w < nw; w++ {
			if len(queues[w]) > 0 {
				if err := sendBatch(c, w+1, queues[w][0], loader, opts, batchTrace{}); err != nil {
					return nil, err
				}
				pos[w] = 1
				inflight++
			}
		}
	}
	for inflight > 0 {
		rep, err := recvResults(c, opts.Telemetry, telemetry.TraceContext{})
		if err != nil {
			return nil, err
		}
		results = append(results, rep.results...)
		from := rep.source
		inflight--
		if ctx.Err() != nil {
			continue // cancelled: drain only
		}
		q := from - 1
		if pos[q] < len(queues[q]) {
			if err := sendBatch(c, from, queues[q][pos[q]], loader, opts, batchTrace{}); err != nil {
				return nil, err
			}
			pos[q]++
			inflight++
		}
	}
	workers := make([]int, nw)
	for i := range workers {
		workers[i] = i + 1
	}
	if err := sendStop(c, workers); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
