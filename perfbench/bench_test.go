package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestInputsDeterministic pins that a seed fully determines a workload's
// inputs: the same seed gives the same graph, private inputs and
// reference answer.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.makeInputs(7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := w.makeInputs(7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !reflect.DeepEqual(a.Job.Graph, b.Job.Graph) || a.Reference != b.Reference {
			t.Errorf("%s: seed 7 generated different inputs twice", w.Name)
		}
		if !reflect.DeepEqual(a.Job.Spec, b.Job.Spec) || a.Job.Iterations != b.Job.Iterations || a.Job.Epsilon != b.Job.Epsilon {
			t.Errorf("%s: seed 7 generated different jobs twice", w.Name)
		}
		c, err := w.makeInputs(8)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if reflect.DeepEqual(a.Job.Graph, c.Job.Graph) {
			t.Errorf("%s: seeds 7 and 8 generated the same graph", w.Name)
		}
	}
}

// TestCheck pins the correctness gate: ε = 0 must match the reference
// exactly, ε > 0 must stay within the sampler's structural bound.
func TestCheck(t *testing.T) {
	w, err := workloadByName("transfer-sim")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.makeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	ref, bound := in.Reference, in.noiseBound(queryEpsilon)
	if bound <= 0 {
		t.Fatalf("noise bound %d at ε=%v", bound, queryEpsilon)
	}
	for _, c := range []struct {
		raw     int64
		epsilon float64
		ok      bool
	}{
		{ref, 0, true},
		{ref + 1, 0, false},
		{ref - bound, queryEpsilon, true},
		{ref + bound, queryEpsilon, true},
		{ref + bound + 1, queryEpsilon, false},
		{ref - bound - 1, queryEpsilon, false},
	} {
		if err := in.check(c.raw, c.epsilon); (err == nil) != c.ok {
			t.Errorf("check(%d, ε=%v) = %v, want ok=%v", c.raw, c.epsilon, err, c.ok)
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNames pins the naming rules and that BENCHMARK.json declares
// exactly the workloads and metrics this program reports.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: malformed unit %q", d.Name, d.Unit)
		}
	}

	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", declared, names)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var g []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("BENCHMARK.json %s metrics %v, program reports %v", kind, g, want)
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEndMetrics)
	compare("per_layer", bf.PerLayer, perLayerMetrics)
}

// TestSmokeRun runs the cheapest workload briefly in both modes and checks
// that the result line is correct and names every declared metric. The
// metric set does not depend on the workload.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real queries")
	}
	for trace, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		var out bytes.Buffer
		if err := run(&out, "transfer-sim", 3, 1, trace); err != nil {
			t.Fatalf("trace %d: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace %d: metric %s missing or with unit %q", trace, d.Name, m.Unit)
			}
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("trace %d: report table lacks %s", trace, d.Name)
			}
		}
		if !strings.Contains(out.String(), "fail_frac") {
			t.Errorf("trace %d: report lacks fail_frac", trace)
		}
	}
}

func TestNetCounter(t *testing.T) {
	for name, want := range map[string][2]string{
		"net/q/3/blk/msgs_sent":    {"blk", "msgs_sent"},
		"net/q/3/aggsh/bytes_sent": {"agg", "bytes_sent"},
		"net/q/12/tx/bytes_recv":   {"tx", "bytes_recv"},
	} {
		f, s, ok := netCounter(name)
		if !ok || f != want[0] || s != want[1] {
			t.Errorf("netCounter(%q) = %q, %q, %v", name, f, s, ok)
		}
	}
	for _, name := range []string{"net/otsub/bytes_sent", "gmw/and_rounds", "net/q/3/blk"} {
		if _, _, ok := netCounter(name); ok {
			t.Errorf("netCounter(%q) accepted a non-query counter", name)
		}
	}
}
