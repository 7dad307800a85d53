package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sloSeconds is the latency limit a request must meet to count towards
// max_rps: the server's own DefaultSLOs price_latency threshold.
const sloSeconds = 0.050

// outcome is what the load generator records about one request, kept
// small because a run records some hundred thousand of them.
type outcome struct {
	idx   int64 // the request's index in the generated sequence
	price float64
	// latency runs from the request's due time to the handler's return,
	// so a generator or server stall also charges the requests it
	// delays. Times are in seconds.
	latency float32
	// handler is the ServeHTTP call alone.
	handler float32
	// late is how far behind its due time the generator launched it.
	late   float32
	status int16
	cached bool
	ok     bool // a 200 whose body parsed
}

// met reports whether the request succeeded within the latency limit.
func (o *outcome) met() bool { return o.status == http.StatusOK && o.ok && o.latency <= sloSeconds }

// phase is one open-loop run at a fixed offered rate, or one closed-
// loop run (rate 0).
type phase struct {
	rate float64
	out  []outcome
	wall float64
	n    int     // requests sent, kept when out is dropped
	met  float64 // share that succeeded within the latency limit
}

// responseWriter is the minimal http.ResponseWriter the in-process
// requests are answered into.
type responseWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

var writers = sync.Pool{New: func() any { return &responseWriter{header: http.Header{}} }}

var bodies = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

var priceURL = &url.URL{Path: "/price"}

// drive offers requests to h open-loop at rate req/s for dur: request
// j of the phase is due at start + j/rate whatever happened to earlier
// ones, and runs on its own goroutine as net/http would serve it. The
// generator launches every due request, then sleeps until the next one
// is due; how late it ran is recorded per request.
func drive(h http.Handler, gen *requestGen, first int64, rate float64, dur time.Duration) *phase {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	p := &phase{rate: rate, out: make([]outcome, n)}
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for j := 0; j < n; {
		now := time.Since(start)
		for ; j < n; j++ {
			due := time.Duration(float64(j) * interval)
			if due > now {
				break
			}
			o := &p.out[j]
			o.idx, o.late = first+int64(j), float32((now - due).Seconds())
			inst, _ := gen.request(o.idx)
			go func() {
				defer wg.Done()
				send(h, inst, start.Add(due), o)
			}()
		}
		if j < n {
			time.Sleep(time.Duration(float64(j)*interval) - time.Since(start))
		}
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	return p
}

// closedLoop runs clients concurrent callers against h for dur, each
// sending its next request as soon as the previous one is answered:
// the saturation shape, where the service sets the pace. Requests take
// consecutive indices from first; it returns the phase and the next
// unused index.
func closedLoop(h http.Handler, gen *requestGen, first int64, clients int, dur time.Duration) (*phase, int64) {
	var next atomic.Int64
	next.Store(first)
	outs := make([][]outcome, clients)
	for c := range outs {
		outs[c] = make([]outcome, 0, 1024)
	}
	var wg sync.WaitGroup
	wg.Add(clients)
	start := time.Now()
	stop := start.Add(dur)
	for c := range outs {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				idx := next.Add(1) - 1
				inst, _ := gen.request(idx)
				o := outcome{idx: idx}
				send(h, inst, time.Now(), &o)
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start).Seconds()}
	for _, o := range outs {
		p.out = append(p.out, o...)
	}
	return p, next.Load()
}

// send performs one POST /price in-process and records its outcome.
func send(h http.Handler, inst instrument, due time.Time, o *outcome) {
	bp := bodies.Get().(*[]byte)
	body := inst.appendBody((*bp)[:0])
	req := &http.Request{
		Method:     http.MethodPost,
		URL:        priceURL,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Host:       "perfbench",
		RemoteAddr: "192.0.2.1:1234",
		RequestURI: "/price",
	}
	w := writers.Get().(*responseWriter)
	t0 := time.Now()
	h.ServeHTTP(w, req)
	t1 := time.Now()
	o.latency = float32(t1.Sub(due).Seconds())
	o.handler = float32(t1.Sub(t0).Seconds())
	o.status = int16(w.code)
	if w.code == http.StatusOK {
		o.price, o.cached, o.ok = parseResult(w.body.Bytes())
	}
	*bp = body
	bodies.Put(bp)
	clear(w.header)
	w.code = 0
	w.body.Reset()
	writers.Put(w)
}

// parseResult reads the price and cached fields of a /price answer.
// encoding/json writes a float64 in its shortest round-tripping form,
// so ParseFloat recovers the server's exact bits.
func parseResult(b []byte) (price float64, cached, ok bool) {
	i := bytes.Index(b, []byte(`"price":`))
	if i < 0 {
		return 0, false, false
	}
	rest := b[i+len(`"price":`):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false, false
	}
	price, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return 0, false, false
	}
	return price, bytes.Contains(b, []byte(`"cached":true`)), true
}

// noopHandler answers every request with a canned 200: driving it shows
// what the generator alone sustains on this machine.
type noopHandler struct{}

func (noopHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(`{"price":1,"cached":false}`))
}
