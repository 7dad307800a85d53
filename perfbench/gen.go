package main

import (
	"math"
	"strconv"

	"riskbench/internal/premia"
)

// The price workloads' inputs are a pure function of (seed, request
// index): request i is drawn from its own counter-based stream, so the
// same seed gives the same request sequence and the same hot/fresh
// split whatever the goroutine schedule, and nothing is stored ahead of
// time.

// hotShare is the fraction of requests that repeat a hot instrument.
// It is kept off one half on purpose: with exactly half the traffic
// answered from the cache the median would sit on the gap between the
// hit and the miss latency distributions and jump between them from
// run to run. At 40% hits the median is a miss-path latency.
const hotShare = 0.4

// hotSetSize is the number of hot instruments: a working set well
// inside serve.DefaultCacheSize (4096), so repeats stay cache reads
// while the fresh half of the traffic churns the rest of the cache.
const hotSetSize = 256

// instrument is one closed-form Black–Scholes vanilla.
type instrument struct {
	put                 bool
	s0, r, sigma, k, tt float64
}

// splitmix64 is the finaliser of the SplitMix64 generator: a bijective
// 64-bit mixer whose outputs pass as independent uniforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is a counter-based uniform stream keyed by (seed, salt, index).
type stream struct{ state uint64 }

func newStream(seed, salt, index uint64) stream {
	return stream{state: splitmix64(seed ^ splitmix64(salt^splitmix64(index)))}
}

// next returns a uniform in [0, 1).
func (s *stream) next() float64 {
	s.state = splitmix64(s.state)
	return float64(s.state>>11) / (1 << 53)
}

func (s *stream) between(lo, hi float64) float64 { return lo + (hi-lo)*s.next() }

// Stream salts keep the hot set, the per-request draws and the book's
// scenario seed independent.
const (
	saltHot uint64 = iota + 1
	saltRequest
	saltScenario
)

func drawInstrument(s *stream) instrument {
	return instrument{
		put:   s.next() < 0.5,
		s0:    s.between(80, 120),
		r:     s.between(0, 0.08),
		sigma: s.between(0.1, 0.5),
		k:     s.between(70, 130),
		tt:    s.between(0.1, 3),
	}
}

// requestGen generates the price workloads' request sequence.
type requestGen struct {
	seed uint64
	hot  []instrument
}

func newRequestGen(seed uint64) *requestGen {
	g := &requestGen{seed: seed, hot: make([]instrument, hotSetSize)}
	for i := range g.hot {
		s := newStream(seed, saltHot, uint64(i))
		g.hot[i] = drawInstrument(&s)
	}
	return g
}

// request returns request i's instrument and whether it repeats a hot
// one. Fresh instruments draw five continuous parameters from 53-bit
// uniforms, so two of them coincide with negligible probability.
func (g *requestGen) request(i int64) (instrument, bool) {
	s := newStream(g.seed, saltRequest, uint64(i))
	if s.next() < hotShare {
		return g.hot[int(s.next()*float64(len(g.hot)))], true
	}
	return drawInstrument(&s), false
}

func (in instrument) names() (option, method string) {
	if in.put {
		return "PutEuro", premia.MethodCFPut
	}
	return "CallEuro", premia.MethodCFCall
}

// appendBody appends the /price JSON body. Parameters print in the
// shortest form that parses back to the same float64, so the server
// prices exactly the problem the benchmark checks against.
func (in instrument) appendBody(b []byte) []byte {
	option, method := in.names()
	b = append(b, `{"model":"BlackScholes1dim","option":"`...)
	b = append(b, option...)
	b = append(b, `","method":"`...)
	b = append(b, method...)
	b = append(b, `","params":{"S0":`...)
	b = strconv.AppendFloat(b, in.s0, 'g', -1, 64)
	b = append(b, `,"r":`...)
	b = strconv.AppendFloat(b, in.r, 'g', -1, 64)
	b = append(b, `,"sigma":`...)
	b = strconv.AppendFloat(b, in.sigma, 'g', -1, 64)
	b = append(b, `,"K":`...)
	b = strconv.AppendFloat(b, in.k, 'g', -1, 64)
	b = append(b, `,"T":`...)
	b = strconv.AppendFloat(b, in.tt, 'g', -1, 64)
	return append(b, `}}`...)
}

// problem is the premia problem the body describes.
func (in instrument) problem() *premia.Problem {
	option, method := in.names()
	return premia.New().SetModel("BlackScholes1dim").SetOption(option).SetMethod(method).
		Set("S0", in.s0).Set("r", in.r).Set("sigma", in.sigma).Set("K", in.k).Set("T", in.tt)
}

// expectedPrice is the reference answer: the same problem computed in
// the benchmark process.
func (in instrument) expectedPrice() (float64, error) {
	res, err := in.problem().Compute()
	if err != nil {
		return math.NaN(), err
	}
	return res.Price, nil
}

// scenarioSeed derives the book workload's scenario-stream seed.
func scenarioSeed(seed uint64) uint64 {
	s := newStream(seed, saltScenario, 0)
	return s.state
}
