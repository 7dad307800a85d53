package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"riskbench/internal/risk"
)

// benchPost drives one request through the handler like postJSON, but
// builds the request struct directly instead of going through
// httptest.NewRequest, whose http.ReadRequest parse allocates a 4 KiB
// bufio reader per call. The benchmarks measure the serving path, so
// the harness should not dominate the allocation profile.
func benchPost(s *Server, path, body string) *httptest.ResponseRecorder {
	req := &http.Request{
		Method:     http.MethodPost,
		URL:        &url.URL{Path: path},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(body)),
		Host:       "example.com",
		RemoteAddr: "192.0.2.1:1234",
		RequestURI: path,
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// BenchmarkServeBatching measures request throughput of an in-process
// server at micro-batch sizes 1, 16 and 64 — the serving-layer analogue
// of the farm's BatchSize sweep — and, at the recommended batch-16
// setting, across the farm worker transports (local goroutine world vs
// the framed hub over tcp, unix and inproc). Every request is a distinct
// cheap closed-form problem, so the cache never hits and each request
// costs one real pricing — what varies is how many ride per farm flush
// and which wire carries them. On one host the unix transport should
// beat tcp: same framed path, no TCP/IP stack.
//
//	go test -bench BenchmarkServeBatching ./internal/serve
func BenchmarkServeBatching(b *testing.B) {
	cases := []struct {
		batch     int
		transport string
	}{
		{1, "local"}, {16, "local"}, {64, "local"},
		{16, "tcp"}, {16, "unix"}, {16, "inproc"},
	}
	for _, tc := range cases {
		size := tc.batch
		b.Run(fmt.Sprintf("batch=%d/transport=%s", size, tc.transport), func(b *testing.B) {
			eng := &risk.Engine{Workers: 4, BatchSize: size}
			if tc.transport != "local" {
				eng.Backend = &risk.NetBackend{Transport: tc.transport, Spawn: risk.GoNetWorkers(nil, 0)}
			}
			s := New(Config{
				Engine:   eng,
				MaxBatch: size,
				// Distinct strikes → no cache reuse; keep the map small.
				CacheSize:   1024,
				MaxInflight: 4096,
				MaxQueue:    4096,
			})
			defer s.Close()
			var next atomic.Int64
			// Many client goroutines per core, so batches can fill even
			// on small machines — the point is coalescing concurrent
			// requests, not saturating CPUs.
			b.SetParallelism(128)
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := 50 + float64(next.Add(1)%100000)/1000
					w := benchPost(s, "/price", cfBody(k))
					if w.Code != http.StatusOK {
						b.Fatalf("status %d: %s", w.Code, w.Body.String())
					}
				}
			})
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "req/s")
			}
		})
	}
}

// BenchmarkServeEvents measures the flight recorder's toll on the
// serving hot path at the recommended batch-16 setting: identical load
// with the event log + SLO monitor on and off. The steady-state request
// path emits no events at all (events mark anomalies — rejects,
// deadline misses, breaches), so the measurable cost is the SLO
// monitor's background tick plus the disabled-check branches; the gap
// should stay within the 5% ISSUE budget.
//
//	go test -bench BenchmarkServeEvents ./internal/serve
func BenchmarkServeEvents(b *testing.B) {
	for _, events := range []bool{true, false} {
		name := "events=on"
		if !events {
			name = "events=off"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Config{
				Engine:        &risk.Engine{Workers: 4, BatchSize: 16},
				MaxBatch:      16,
				CacheSize:     1024,
				MaxInflight:   4096,
				MaxQueue:      4096,
				DisableEvents: !events,
			})
			defer s.Close()
			var next atomic.Int64
			b.SetParallelism(128)
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := 50 + float64(next.Add(1)%100000)/1000
					w := benchPost(s, "/price", cfBody(k))
					if w.Code != http.StatusOK {
						b.Fatalf("status %d: %s", w.Code, w.Body.String())
					}
				}
			})
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "req/s")
			}
		})
	}
}

// BenchmarkServeTracing measures the cost of per-request distributed
// tracing at the recommended batch-16 setting: identical load with
// tracing on and off. The trace machinery is a handful of span
// allocations plus hex codec on the farm wire per request, so the
// on/off gap should stay within a few percent (the ISSUE budget is 5%).
//
//	go test -bench BenchmarkServeTracing ./internal/serve
func BenchmarkServeTracing(b *testing.B) {
	for _, tracing := range []bool{true, false} {
		name := "tracing=on"
		if !tracing {
			name = "tracing=off"
		}
		b.Run(name, func(b *testing.B) {
			s := New(Config{
				Engine:         &risk.Engine{Workers: 4, BatchSize: 16},
				MaxBatch:       16,
				CacheSize:      1024,
				MaxInflight:    4096,
				MaxQueue:       4096,
				DisableTracing: !tracing,
			})
			defer s.Close()
			var next atomic.Int64
			b.SetParallelism(128)
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := 50 + float64(next.Add(1)%100000)/1000
					w := benchPost(s, "/price", cfBody(k))
					if w.Code != http.StatusOK {
						b.Fatalf("status %d: %s", w.Code, w.Body.String())
					}
				}
			})
			b.StopTimer()
			if secs := time.Since(start).Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)/secs, "req/s")
			}
		})
	}
}
