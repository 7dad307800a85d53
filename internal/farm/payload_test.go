package farm

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"riskbench/internal/mpi"
	"riskbench/internal/nsp"
	"riskbench/internal/telemetry"
)

// TestCompatSidePayloadBytes pins the exact bytes of the side payloads
// workers ship to masters. Round-trip tests cannot see a change made to
// both ends at once (a renamed key, a reshaped column), but a master of
// the previous build reading the payload would: a failure here is a
// wire change and needs a protocol version bump.
func TestCompatSidePayloadBytes(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{ID: 1<<63 + 7, ParentID: 3, TraceID: 9, Name: "farm.compute", Start: 1.5, End: 2.25},
		{ID: 12, ParentID: 1<<63 + 7, TraceID: 9, Name: "farm.fetch", Start: 1.6, End: 2.0},
		{ID: 13, ParentID: 3, TraceID: 9, Name: "farm.compute", Start: 2.25, End: 3.5},
	}
	evs := []telemetry.Event{
		{
			When: 1.5, Level: telemetry.LevelWarn, Name: "farm.compute.error", TraceID: 0xdeadbeefcafef00d,
			Fields: []telemetry.Field{telemetry.Str("task", "job-01"), telemetry.Str("err", "boom"), telemetry.Num("attempt", 2)},
		},
		{
			When: 2.5, Level: telemetry.LevelError, Name: "farm.worker.exit",
			Fields: []telemetry.Field{telemetry.Num("rank", 3), telemetry.Str("task", "job-01")},
		},
		{When: 3.25, Level: telemetry.LevelWarn, Name: "farm.compute.error"},
	}
	for _, tc := range []struct {
		name string
		h    *nsp.Hash
		want string
	}{
		{"spans", writeSpans(spans, 1.25), "987f1e248aa44d9163fc6c1b485c6f12218e34ca71bc2a0c9c2f4a819b811a0a"},
		{"events", writeEvents(evs, 42.5), "079e4289b2b56dd7b63a9cee13978308623d9dba4aa97dd6d8508db1b62a614d"},
		{"no spans", writeSpans(nil, 0), "39bbd71b3c9b93da4d95987876432dc8234b84f4b46f14564d84198e2d277fa0"},
		{"no events", writeEvents(nil, 0), "d7f484fbff2112b5a41374329d55ab08dd61ef76ddbbca75f91e543940f937b8"},
	} {
		s, err := nsp.Serialize(tc.h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(s.Data)); got != tc.want {
			t.Errorf("%s payload bytes changed: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// corruptWorker serves batches like RunWorker but appends bad to every
// result list it sends.
func corruptWorker(c mpi.Comm, bad *nsp.Hash) error {
	for {
		obj, _, err := mpi.RecvObj(c, 0, TagTask)
		if err != nil {
			return err
		}
		desc, err := decodeBatch(obj)
		if err != nil || len(desc.Names) == 0 {
			return err
		}
		payloads, _, err := recvPayloads(c, 0, len(desc.Names))
		if err != nil {
			return err
		}
		out := nsp.NewList()
		for i, name := range desc.Names {
			res, err := LiveExecutor{}.Execute(name, payloads[i], 0, 0)
			if err != nil {
				return err
			}
			out.Add(res)
		}
		out.Add(bad)
		if err := mpi.SendObj(c, out, 0, TagResult); err != nil {
			return err
		}
	}
}

// TestFarmDropsMalformedSidePayload has rank 1 answer every batch with
// its priced results plus a malformed side payload. The master must
// drop the payload, not the round: every result comes back bit-equal
// to the closed form, and each dropped payload is logged as a
// farm.payload.drop warning naming rank 1.
func TestFarmDropsMalformedSidePayload(t *testing.T) {
	badSpans := writeSpans([]telemetry.SpanRecord{{ID: 1, TraceID: 2, Name: "farm.compute"}}, 0)
	badSpans.Set(spanIDs, nsp.NewMat(1, 1))
	badEvents := writeEvents([]telemetry.Event{{Level: telemetry.LevelWarn, Name: "farm.compute.error"}}, 0)
	badEvents.Set(eventNameIx, nsp.Scalar(7))
	for _, tc := range []struct {
		name string
		bad  *nsp.Hash
	}{{"spans", badSpans}, {"events", badEvents}} {
		t.Run(tc.name, func(t *testing.T) {
			tasks, want := makePortfolio(t, 8)
			reg := telemetry.New()
			w := mpi.NewLocalWorld(3)
			defer w.Close()
			done := make(chan error, 2)
			go func() { done <- corruptWorker(w.Comm(1), tc.bad) }()
			go func() { done <- RunWorker(w.Comm(2), LiveExecutor{}, nil, Options{Strategy: SerializedLoad}) }()
			results, err := RunMaster(context.Background(), w.Comm(0), tasks, LiveLoader{},
				Options{Strategy: SerializedLoad, Telemetry: reg})
			if err != nil {
				t.Fatalf("master: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := <-done; err != nil {
					t.Errorf("worker: %v", err)
				}
			}
			if len(results) != len(want) {
				t.Fatalf("%d results, want %d", len(results), len(want))
			}
			fromRank1 := 0
			for _, r := range results {
				price, ok := ResultField(r, "price")
				if r.Err != nil || !ok || price != want[r.Name] {
					t.Errorf("%s: price %v ok=%v err=%v, want %v", r.Name, price, ok, r.Err, want[r.Name])
				}
				if r.Worker == 1 {
					fromRank1++
				}
			}
			drops := reg.Events(telemetry.EventFilter{Prefix: "farm.payload.drop"})
			if fromRank1 == 0 || len(drops) != fromRank1 {
				t.Fatalf("%d farm.payload.drop events for %d batches from rank 1", len(drops), fromRank1)
			}
			for _, ev := range drops {
				if rank, _ := fieldNum(ev, "rank"); ev.Level != telemetry.LevelWarn || rank != 1 {
					t.Errorf("drop event level %v rank %v, want warn from rank 1", ev.Level, rank)
				}
			}
		})
	}
}
