package farm

import (
	"fmt"
	"math"

	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// Side payloads. A worker may append extra hashes to its result list:
// the spans it finished for the batch and the warning+ flight-recorder
// events it emitted while pricing it. Each is one side payload: a marker
// key naming its kind, the worker's descriptor-receive clock reading (so
// the master can shift worker times onto its own clock), and 1xn
// matrix columns, one per record field. Strings never travel per
// record: each distinct string is stored once in an intern table and
// records carry its index. 64-bit IDs travel as split 32-bit halves
// (1x2n). One writer and one reader serve every kind; a kind is only a
// mapping between its records and columns.
const (
	sideRecvAt = "recvat"

	spanMarker  = "__spans"
	spanIDs     = "ids"
	spanParents = "parents"
	spanTraces  = "traces"
	spanNames   = "names"  // intern table: the distinct span names
	spanNameIx  = "nameix" // per-span index into the name table
	spanStarts  = "starts"
	spanEnds    = "ends"

	// Event field values flatten into parallel 1xm columns with a
	// per-event count, so the payload is a handful of matrices
	// regardless of event shape.
	eventMarker   = "__events"
	eventLevels   = "levels"  // severity ordinals
	eventNames    = "names"   // intern table: distinct event names
	eventNameIx   = "nameix"  // per-event index into the name table
	eventTraces   = "traces"  // trace IDs
	eventWhens    = "whens"   // worker-clock timestamps
	eventNFields  = "nfields" // per-event field counts
	eventFieldKey = "fkeyix"  // per-field index into the key table
	eventFieldNum = "fnums"   // numeric value, or index into fstrs
	eventFieldStr = "fisstr"  // 0/1: is the field a string
	eventKeys     = "fkeys"   // intern table: distinct field keys
	eventStrs     = "fstrs"   // intern table: distinct string values
)

// u64Col is a column of 64-bit IDs stored as exact high/low 32-bit
// halves: a single float64 cannot hold them.
type u64Col []float64

func (c u64Col) set(i int, v uint64) {
	c[2*i] = float64(v >> 32)
	c[2*i+1] = float64(uint32(v))
}

// valid reports whether both halves of value i are integers in
// [0, 2^32).
func (c u64Col) valid(i int) bool {
	u32 := func(x float64) bool { return x == math.Trunc(x) && x >= 0 && x < 1<<32 }
	return u32(c[2*i]) && u32(c[2*i+1])
}

// at returns value i of a column whose halves are valid.
func (c u64Col) at(i int) uint64 { return uint64(c[2*i])<<32 | uint64(c[2*i+1]) }

// payloadWriter builds one side payload.
type payloadWriter struct {
	h      *nsp.Hash
	tables []*internTable
}

// internTable is a string table under construction.
type internTable struct {
	key  string
	strs []string
}

func newPayloadWriter(marker string, recvAt float64) *payloadWriter {
	h := nsp.NewHash()
	h.Set(marker, nsp.Scalar(1))
	h.Set(sideRecvAt, nsp.Scalar(recvAt))
	return &payloadWriter{h: h}
}

// f64 adds an n-value float column and returns its storage.
func (w *payloadWriter) f64(key string, n int) []float64 {
	m := nsp.NewMat(1, n)
	w.h.Set(key, m)
	return m.Data
}

// u64 adds an n-value ID column.
func (w *payloadWriter) u64(key string, n int) u64Col { return w.f64(key, 2*n) }

// table adds an intern table; done writes it out.
func (w *payloadWriter) table(key string) *internTable {
	t := &internTable{key: key}
	w.tables = append(w.tables, t)
	return t
}

// ix returns s's index in t, adding s if new. Tables hold a batch's
// handful of distinct strings, so a linear scan suffices.
func (t *internTable) ix(s string) float64 {
	for i, v := range t.strs {
		if v == s {
			return float64(i)
		}
	}
	t.strs = append(t.strs, s)
	return float64(len(t.strs) - 1)
}

// done writes the intern tables and returns the payload.
func (w *payloadWriter) done() *nsp.Hash {
	for _, t := range w.tables {
		m := nsp.NewSMat(1, len(t.strs))
		copy(m.Data, t.strs)
		w.h.Set(t.key, m)
	}
	return w.h
}

// payloadReader reads one side payload's columns. Its error is sticky:
// after the first failure every accessor returns nothing and err keeps
// the first cause. Every column length is checked against the row count
// it must have, and every intern index against its table, before a
// mapping allocates its records, so memory is bounded by the bytes
// received, never by a length field in them.
type payloadReader struct {
	h      *nsp.Hash
	marker string
	recvAt float64
	err    error
}

// open reports whether the payload is of the kind marker names and, if
// so, reads the worker's receive clock.
func (r *payloadReader) open(marker string) bool {
	if _, ok := r.h.Get(marker); !ok {
		return false
	}
	r.marker = marker
	if at := r.f64(sideRecvAt, 1); at != nil {
		r.recvAt = at[0]
	}
	return true
}

func (r *payloadReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("farm: %s payload: %s", r.marker, fmt.Sprintf(format, args...))
	}
}

// column returns float column key at whatever length it arrived.
func (r *payloadReader) column(key string) []float64 {
	if r.err != nil {
		return nil
	}
	v, _ := r.h.Get(key)
	m, ok := v.(*nsp.Mat)
	if !ok {
		r.failf("%q missing or not a matrix", key)
		return nil
	}
	return m.Data
}

// rows returns the length of column key: the row count the columns of
// its records are checked against.
func (r *payloadReader) rows(key string) int { return len(r.column(key)) }

// f64 returns float column key, which must hold exactly n values.
func (r *payloadReader) f64(key string, n int) []float64 {
	c := r.column(key)
	if r.err == nil && len(c) != n {
		r.failf("%q has %d values, want %d", key, len(c), n)
		return nil
	}
	return c
}

// u64 returns ID column key, which must hold exactly n valid IDs.
func (r *payloadReader) u64(key string, n int) u64Col {
	c := u64Col(r.f64(key, 2*n))
	for i := 0; i < n && r.err == nil; i++ {
		if !c.valid(i) {
			r.failf("%q value %d: halves (%v, %v) out of range", key, i, c[2*i], c[2*i+1])
		}
	}
	return c
}

// table returns intern table key.
func (r *payloadReader) table(key string) []string {
	if r.err != nil {
		return nil
	}
	v, _ := r.h.Get(key)
	m, ok := v.(*nsp.SMat)
	if !ok {
		r.failf("%q missing or not a string matrix", key)
		return nil
	}
	return m.Data
}

// integer checks that v, a value of column key, is an integer in
// [lo, hi], and reports whether the reader is still sound.
func (r *payloadReader) integer(key string, v, lo, hi float64) bool {
	if r.err == nil && (v != math.Trunc(v) || v < lo || v > hi) {
		r.failf("%q value %v is not an integer in [%v, %v]", key, v, lo, hi)
	}
	return r.err == nil
}

// internCol is an index column whose indices are all in its table.
type internCol struct {
	ix  []float64
	tab []string
}

func (c internCol) at(i int) string { return c.tab[int(c.ix[i])] }

// interned returns index column ixKey, which must hold exactly n
// indices into table tabKey.
func (r *payloadReader) interned(ixKey, tabKey string, n int) internCol {
	c := internCol{ix: r.f64(ixKey, n), tab: r.table(tabKey)}
	for _, v := range c.ix {
		if !r.integer(ixKey, v, 0, float64(len(c.tab)-1)) {
			break
		}
	}
	return c
}

// readSide folds item into rep when it is a side payload, reporting
// whether it was one. A kind's mapping stores nothing once its reader
// has failed, so a malformed payload leaves rep untouched and comes
// back as the error.
func (rep *workerReply) readSide(item nsp.Object) (bool, error) {
	h, ok := item.(*nsp.Hash)
	if !ok {
		return false, nil
	}
	r := payloadReader{h: h}
	switch {
	case r.open(spanMarker):
		readSpans(&r, rep)
	case r.open(eventMarker):
		readEvents(&r, rep)
	default:
		return false, nil
	}
	if r.err == nil {
		rep.recvAt = r.recvAt
	}
	return true, r.err
}

// writeSpans packs finished worker spans for the trip back to the
// master. recvAt is the worker clock at descriptor receipt.
func writeSpans(recs []telemetry.SpanRecord, recvAt float64) *nsp.Hash {
	n := len(recs)
	w := newPayloadWriter(spanMarker, recvAt)
	ids, parents, traces := w.u64(spanIDs, n), w.u64(spanParents, n), w.u64(spanTraces, n)
	names, nameIx := w.table(spanNames), w.f64(spanNameIx, n)
	starts, ends := w.f64(spanStarts, n), w.f64(spanEnds, n)
	for i, rec := range recs {
		ids.set(i, rec.ID)
		parents.set(i, rec.ParentID)
		traces.set(i, rec.TraceID)
		nameIx[i] = names.ix(rec.Name)
		starts[i], ends[i] = rec.Start, rec.End
	}
	return w.done()
}

// readSpans maps a span payload back to records, still on the worker
// clock (the master shifts them).
func readSpans(r *payloadReader, rep *workerReply) {
	n := r.rows(spanNameIx)
	ids, parents, traces := r.u64(spanIDs, n), r.u64(spanParents, n), r.u64(spanTraces, n)
	names := r.interned(spanNameIx, spanNames, n)
	starts, ends := r.f64(spanStarts, n), r.f64(spanEnds, n)
	if r.err != nil {
		return
	}
	recs := make([]telemetry.SpanRecord, n)
	for i := range recs {
		recs[i] = telemetry.SpanRecord{
			ID: ids.at(i), ParentID: parents.at(i), TraceID: traces.at(i),
			Name: names.at(i), Start: starts[i], End: ends[i],
		}
	}
	rep.spans = recs
}

// writeEvents packs worker events for the trip back to the master.
// recvAt is the worker clock at descriptor receipt.
func writeEvents(evs []telemetry.Event, recvAt float64) *nsp.Hash {
	n, m := len(evs), 0
	for _, ev := range evs {
		m += len(ev.Fields)
	}
	w := newPayloadWriter(eventMarker, recvAt)
	levels, whens, nFields := w.f64(eventLevels, n), w.f64(eventWhens, n), w.f64(eventNFields, n)
	names, nameIx := w.table(eventNames), w.f64(eventNameIx, n)
	traces := w.u64(eventTraces, n)
	keys, keyIx := w.table(eventKeys), w.f64(eventFieldKey, m)
	strs, nums, isStr := w.table(eventStrs), w.f64(eventFieldNum, m), w.f64(eventFieldStr, m)
	j := 0
	for i, ev := range evs {
		levels[i] = float64(ev.Level)
		nameIx[i] = names.ix(ev.Name)
		traces.set(i, ev.TraceID)
		whens[i] = ev.When
		nFields[i] = float64(len(ev.Fields))
		for _, f := range ev.Fields {
			keyIx[j] = keys.ix(f.Key)
			if s, ok := f.StrValue(); ok {
				isStr[j], nums[j] = 1, strs.ix(s)
			} else {
				nums[j], _ = f.NumValue()
			}
			j++
		}
	}
	return w.done()
}

// readEvents maps an event payload back to events. Times stay on the
// worker clock (the master shifts them) and Rank is left at RankLocal
// (the master attributes the source rank).
func readEvents(r *payloadReader, rep *workerReply) {
	n := r.rows(eventLevels)
	levels, whens, nFields := r.f64(eventLevels, n), r.f64(eventWhens, n), r.f64(eventNFields, n)
	names := r.interned(eventNameIx, eventNames, n)
	traces := r.u64(eventTraces, n)
	m := r.rows(eventFieldKey)
	keys := r.interned(eventFieldKey, eventKeys, m)
	strs, nums, isStr := r.table(eventStrs), r.f64(eventFieldNum, m), r.f64(eventFieldStr, m)
	claimed := 0
	for i := 0; i < n && r.err == nil; i++ {
		r.integer(eventLevels, levels[i], float64(telemetry.LevelDebug), float64(telemetry.LevelError))
		if r.integer(eventNFields, nFields[i], 0, float64(m-claimed)) {
			claimed += int(nFields[i])
		}
	}
	if claimed != m {
		r.failf("%d fields claimed by no event", m-claimed)
	}
	for j := 0; j < m && r.err == nil; j++ {
		if isStr[j] != 0 {
			r.integer(eventFieldNum, nums[j], 0, float64(len(strs)-1))
		}
	}
	if r.err != nil {
		return
	}
	evs := make([]telemetry.Event, n)
	fields := make([]telemetry.Field, m)
	j := 0
	for i := range evs {
		nf := int(nFields[i])
		for k := j; k < j+nf; k++ {
			if isStr[k] != 0 {
				fields[k] = telemetry.Str(keys.at(k), strs[int(nums[k])])
			} else {
				fields[k] = telemetry.Num(keys.at(k), nums[k])
			}
		}
		evs[i] = telemetry.Event{
			When: whens[i], Level: telemetry.Level(levels[i]), Name: names.at(i),
			TraceID: traces.at(i), Rank: telemetry.RankLocal, Fields: fields[j : j+nf : j+nf],
		}
		j += nf
	}
	rep.events = evs
}
