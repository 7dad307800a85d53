package farm

import (
	"errors"
	"fmt"

	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// Strategy selects how problems travel from master to worker; the values
// correspond to the columns of the paper's Tables II and III.
type Strategy int

// The three communication strategies of the paper.
const (
	FullLoad Strategy = iota
	NFSLoad
	SerializedLoad
)

// String returns the paper's label for the strategy.
func (s Strategy) String() string {
	switch s {
	case FullLoad:
		return "full load"
	case NFSLoad:
		return "NFS"
	case SerializedLoad:
		return "serialized load"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NeedsPayload reports whether the master ships problem bytes itself
// (true) or lets the worker fetch them from the shared store (false).
func (s Strategy) NeedsPayload() bool { return s != NFSLoad }

// Message tags of the farm protocol.
const (
	// TagTask carries a batch descriptor (names, costs, sizes); an empty
	// batch tells the worker to stop, like the paper's [''] message.
	TagTask = 1
	// TagPayload carries the batch's problem payloads as a list of
	// serials (FullLoad and SerializedLoad only).
	TagPayload = 2
	// TagResult carries the batch's results back as a list of hashes.
	TagResult = 3
)

// Task is one pricing job of the portfolio.
type Task struct {
	// Name identifies the task; under NFSLoad it is the path the worker
	// reads from the shared store.
	Name string
	// Data is the problem's save-file content (nsp-serialized stream).
	Data []byte
	// Obj, when set, is the problem object itself. On communicators that
	// pass objects by reference (in-process worlds) it travels to the
	// worker without any serialization; on wire transports the loader
	// serializes it on demand. The object must not be mutated after the
	// task is handed to the farm.
	Obj nsp.Object
	// Cost is the task's virtual compute time in seconds, used by
	// simulated executors; live executors ignore it.
	Cost float64
}

// Result is one priced task as collected by the master.
type Result struct {
	// Name echoes the task name.
	Name string
	// Worker is the rank that computed the task.
	Worker int
	// Value is the result object produced by the worker's Executor (the
	// error-report hash when Err is set).
	Value nsp.Object
	// Err holds the worker-side pricing error, if the task failed on
	// every attempt.
	Err error
}

// Options configures a farm run.
type Options struct {
	// Strategy selects the communication strategy (default FullLoad).
	Strategy Strategy
	// BatchSize groups this many tasks per message exchange (default 1,
	// the paper's setting; larger values implement the latency
	// amortisation proposed in the conclusion).
	BatchSize int
	// MasterRank is the rank workers talk to (default 0); sub-masters in
	// a hierarchy override it.
	MasterRank int
	// MaxRetries is how many times the master re-farms a task whose
	// pricing failed on a worker (each retry goes to whichever worker is
	// free, usually a different one). Tasks failing every attempt come
	// back with Result.Err set. Transport and protocol errors are always
	// fatal regardless of this setting.
	MaxRetries int
	// Telemetry, when non-nil, receives the farm's metrics and spans:
	// queue-wait/serialize/task-latency histograms and per-task spans on
	// the master, fetch/compute histograms and spans on workers, and
	// per-worker busy gauges. Durations are read off the registry clock,
	// so a registry bound to a simulation clock records virtual seconds.
	// Nil (the default) disables instrumentation entirely.
	Telemetry *telemetry.Registry
	// LocalSpans declares that this worker shares its telemetry registry
	// with the master (in-process worlds): its finished spans land in the
	// master's trace table directly, so shipping them back with the
	// results would only be deduplicated away. Workers skip the span
	// payload and the event payload; masters ignore the flag.
	LocalSpans bool
	// Fleet, when non-nil, receives per-worker health updates from the
	// master: in-flight counts, completions, failures, redeals and EWMA
	// task durations, served at /debug/farm. Workers ignore it. One
	// Fleet may span many runs so worker history accumulates.
	Fleet *Fleet
}

func (o Options) batchSize() int {
	if o.BatchSize < 1 {
		return 1
	}
	return o.BatchSize
}

// descriptor field keys. The trace fields are present only on traced
// batches, so untraced runs keep the exact pre-tracing wire format.
const (
	descNames   = "names"
	descCosts   = "costs"
	descSizes   = "sizes"
	descTrace   = "trace"   // trace ID as a 1x2 matrix of 32-bit halves
	descParents = "parents" // per-task parent span IDs, 1x2k halves
)

// batchTrace is the trace context a batch carries over the wire: the
// trace ID plus one parent span ID per task, so a worker's farm.compute
// spans parent directly onto the master's farm.task spans.
type batchTrace struct {
	traceID uint64
	parents []uint64
}

func (bt batchTrace) valid() bool { return bt.traceID != 0 && len(bt.parents) > 0 }

// batchDesc is a decoded batch descriptor: task stubs (Data is not
// carried by the descriptor; sizes preserve the payload byte counts)
// plus the batch's trace context, if any.
type batchDesc struct {
	Names []string
	Costs []float64
	Sizes []float64
	Trace batchTrace
}

// encodeBatch builds the descriptor hash for a batch of tasks. An empty
// batch is the stop message. A valid bt (one parent per task) rides the
// descriptor; an invalid one leaves the descriptor untraced.
func encodeBatch(tasks []Task, bt batchTrace) *nsp.Hash {
	k := len(tasks)
	names := nsp.NewSMat(1, k)
	costs := nsp.NewMat(1, k)
	sizes := nsp.NewMat(1, k)
	for i, t := range tasks {
		names.Data[i] = t.Name
		costs.Data[i] = t.Cost
		sizes.Data[i] = float64(len(t.Data))
	}
	h := nsp.NewHash()
	h.Set(descNames, names)
	h.Set(descCosts, costs)
	h.Set(descSizes, sizes)
	if bt.valid() && len(bt.parents) == k {
		trace := nsp.NewMat(1, 2)
		u64Col(trace.Data).set(0, bt.traceID)
		parents := nsp.NewMat(1, 2*k)
		for i, p := range bt.parents {
			u64Col(parents.Data).set(i, p)
		}
		h.Set(descTrace, trace)
		h.Set(descParents, parents)
	}
	return h
}

// decodeBatch parses a descriptor hash back into a batchDesc.
func decodeBatch(o nsp.Object) (batchDesc, error) {
	var d batchDesc
	h, ok := o.(*nsp.Hash)
	if !ok {
		return d, fmt.Errorf("farm: descriptor is %v, want hash", o.Kind())
	}
	nv, ok1 := h.Get(descNames)
	cv, ok2 := h.Get(descCosts)
	sv, ok3 := h.Get(descSizes)
	if !ok1 || !ok2 || !ok3 {
		return d, errors.New("farm: descriptor missing fields")
	}
	nm, ok1 := nv.(*nsp.SMat)
	cm, ok2 := cv.(*nsp.Mat)
	sm, ok3 := sv.(*nsp.Mat)
	if !ok1 || !ok2 || !ok3 {
		return d, errors.New("farm: descriptor fields have wrong types")
	}
	k := len(nm.Data)
	if len(cm.Data) != k || len(sm.Data) != k {
		return d, errors.New("farm: descriptor field lengths disagree")
	}
	d.Names, d.Costs, d.Sizes = nm.Data, cm.Data, sm.Data
	if tv, ok := h.Get(descTrace); ok {
		tm, ok := tv.(*nsp.Mat)
		if !ok || len(tm.Data) != 2 {
			return d, errors.New("farm: descriptor trace field malformed")
		}
		tc := u64Col(tm.Data)
		if !tc.valid(0) {
			return d, fmt.Errorf("farm: descriptor trace ID halves (%v, %v) out of range", tc[0], tc[1])
		}
		pv, ok := h.Get(descParents)
		if !ok {
			return d, errors.New("farm: traced descriptor missing parents")
		}
		pm, ok := pv.(*nsp.Mat)
		if !ok || len(pm.Data) != 2*k {
			return d, errors.New("farm: descriptor parents malformed")
		}
		pc := u64Col(pm.Data)
		parents := make([]uint64, k)
		for i := range parents {
			if !pc.valid(i) {
				return d, fmt.Errorf("farm: descriptor parent %d halves (%v, %v) out of range", i, pc[2*i], pc[2*i+1])
			}
			parents[i] = pc.at(i)
		}
		d.Trace = batchTrace{traceID: tc.at(0), parents: parents}
	}
	return d, nil
}

// resultHash builds the standard result object returned by executors.
func resultHash(name string, price, ci, delta, work float64) *nsp.Hash {
	h := nsp.NewHash()
	h.Set("name", nsp.Str(name))
	h.Set("price", nsp.Scalar(price))
	h.Set("priceCI", nsp.Scalar(ci))
	h.Set("delta", nsp.Scalar(delta))
	h.Set("work", nsp.Scalar(work))
	return h
}

// errorResultHash builds the result object reporting a pricing failure.
func errorResultHash(name, msg string) *nsp.Hash {
	h := nsp.NewHash()
	h.Set("name", nsp.Str(name))
	h.Set("error", nsp.Str(msg))
	return h
}

// resultError extracts the failure message from a result object, if any.
func resultError(o nsp.Object) (string, bool) {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return "", false
	}
	v, ok := h.Get("error")
	if !ok {
		return "", false
	}
	s, ok := v.(*nsp.SMat)
	if !ok || s.Rows != 1 || s.Cols != 1 {
		return "", false
	}
	return s.StrValue(), true
}

// ResultField extracts a scalar field from a result object collected by
// the master, with a presence flag.
func ResultField(r Result, field string) (float64, bool) {
	h, ok := r.Value.(*nsp.Hash)
	if !ok {
		return 0, false
	}
	v, ok := h.Get(field)
	if !ok {
		return 0, false
	}
	m, ok := v.(*nsp.Mat)
	if !ok || m.Rows != 1 || m.Cols != 1 {
		return 0, false
	}
	return m.ScalarValue(), true
}

// resultName extracts the echoed task name from a result object.
func resultName(o nsp.Object) (string, error) {
	h, ok := o.(*nsp.Hash)
	if !ok {
		return "", fmt.Errorf("farm: result is %v, want hash", o.Kind())
	}
	v, ok := h.Get("name")
	if !ok {
		return "", errors.New("farm: result missing name")
	}
	s, ok := v.(*nsp.SMat)
	if !ok || s.Rows != 1 || s.Cols != 1 {
		return "", errors.New("farm: result name is not a string")
	}
	return s.StrValue(), nil
}
