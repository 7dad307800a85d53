package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// sequence renders the first n requests of a seed: bodies and the
// hot/fresh split.
func sequence(seed uint64, n int) (bodies []string, hot []bool) {
	g := newRequestGen(seed)
	for i := 0; i < n; i++ {
		inst, h := g.request(int64(i))
		bodies = append(bodies, string(inst.appendBody(nil)))
		hot = append(hot, h)
	}
	return bodies, hot
}

func TestSameSeedSameRequests(t *testing.T) {
	b1, h1 := sequence(42, 5000)
	b2, h2 := sequence(42, 5000)
	for i := range b1 {
		if b1[i] != b2[i] || h1[i] != h2[i] {
			t.Fatalf("request %d differs between two generators of seed 42", i)
		}
	}
}

func TestOtherSeedOtherRequests(t *testing.T) {
	b1, h1 := sequence(42, 5000)
	b2, h2 := sequence(43, 5000)
	sameBody, sameSplit := 0, 0
	for i := range b1 {
		if b1[i] == b2[i] {
			sameBody++
		}
		if h1[i] == h2[i] {
			sameSplit++
		}
	}
	if sameBody != 0 {
		t.Errorf("%d of 5000 requests identical across seeds", sameBody)
	}
	// Two independent splits agree on about p²+(1-p)² = 52% of requests.
	if sameSplit > 2800 {
		t.Errorf("hot/fresh split agrees on %d of 5000 requests across seeds", sameSplit)
	}
}

func TestSplitAndFreshness(t *testing.T) {
	bodies, hot := sequence(7, 20000)
	hits := 0
	fresh := map[string]bool{}
	for i, h := range hot {
		if h {
			hits++
			continue
		}
		if fresh[bodies[i]] {
			t.Fatalf("fresh request %d repeats an earlier one", i)
		}
		fresh[bodies[i]] = true
	}
	if share := float64(hits) / float64(len(hot)); math.Abs(share-hotShare) > 0.02 {
		t.Errorf("hot share %.3f, want about %.2f", share, hotShare)
	}
}

// TestBodyIsTheProblem checks that the body the server decodes prices
// the same problem the benchmark checks against.
func TestBodyIsTheProblem(t *testing.T) {
	g := newRequestGen(3)
	for i := int64(0); i < 200; i++ {
		inst, _ := g.request(i)
		var body struct {
			Model, Option, Method string
			Params                map[string]float64
		}
		if err := json.Unmarshal(inst.appendBody(nil), &body); err != nil {
			t.Fatal(err)
		}
		p := inst.problem()
		if body.Model != p.Model || body.Option != p.Option || body.Method != p.Method || len(body.Params) != len(p.Params) {
			t.Fatalf("request %d: body %+v, problem %v", i, body, p)
		}
		for k, v := range p.Params {
			if math.Float64bits(body.Params[k]) != math.Float64bits(v) {
				t.Fatalf("request %d: param %s = %v in the body, %v in the problem", i, k, body.Params[k], v)
			}
		}
		if _, err := inst.expectedPrice(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestParseResultKeepsBits(t *testing.T) {
	for _, v := range []float64{10.450583572185565, 1e-300, 0.1 + 0.2, 123456.789e10} {
		b, err := json.Marshal(map[string]any{"price": v, "cached": true})
		if err != nil {
			t.Fatal(err)
		}
		got, cached, ok := parseResult(b)
		if !ok || !cached || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("parseResult(%s) = %v, %v, %v", b, got, cached, ok)
		}
	}
}

// TestMetricsMatchBenchmarkFile keeps the metric names and units the
// program prints in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, want[i].name, want[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program does not run", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && name != unlistedWorkload {
			t.Errorf("the program runs workload %q, which BENCHMARK.json does not list", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(append([]float64(nil), xs...), 0.5); q != 3 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(append([]float64(nil), xs...), 0.99); q != 5 {
		t.Errorf("p99 = %v", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
