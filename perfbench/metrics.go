package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json names the same metrics, and a run
// must print every one of them (end-to-end with tracing off, per-layer
// with tracing on).
type metricDef struct {
	Name, Unit string
}

var endToEndMetrics = []metricDef{
	{"query_s", "s"},          // Session.Query wall time, steady queries
	{"first_query_s", "s"},    // first query on a fresh deployment
	{"setup_s", "s"},          // Engine.Open wall time
	{"bytes_per_query", "MB"}, // Report.TotalBytes of a steady query
	{"cpu_s_per_query", "s"},  // process user+sys CPU per steady query
	{"rss_peak_mb", "MB"},     // peak resident memory of the run
}

var perLayerMetrics = []metricDef{
	{"circuit.update_depth", "count"},
	{"circuit.update_ands", "count"},
	{"circuit.agg_ands", "count"},
	{"gmw.eval_s", "s"},
	{"gmw.round_us", "us"},
	{"gmw.and_rounds", "count"},
	{"gmw.and_gates", "count"},
	{"gmw.block_s", "s"},
	{"ot.iknp_batch_us", "us"},
	{"ot.base_handshake_s", "s"},
	{"ot.derand_bits", "count"},
	{"network.rtt_us", "us"},
	{"network.msgs.blk", "count"},
	{"network.msgs.tx", "count"},
	{"network.msgs.agg", "count"},
	{"network.msgs.init", "count"},
	{"network.bytes.blk", "MB"},
	{"network.bytes.tx", "MB"},
	{"network.bytes.agg", "MB"},
	{"network.bytes.init", "MB"},
	{"tcpnet.rtt_us", "us"},
	{"group.exp_var_us", "us"},
	{"group.exp_fixed_us", "us"},
	{"elgamal.encrypt_us", "us"},
	{"elgamal.decrypt_us", "us"},
	{"elgamal.table_build_s", "s"},
	{"transfer.one_s", "s"},
	{"transfer.tx_s", "s"},
	{"trustedparty.setup_s", "s"},
	{"vertex.init_s", "s"},
	{"vertex.compute_s", "s"},
	{"vertex.transfer_s", "s"},
	{"vertex.agg_s", "s"},
	{"vertex.phase_cover", "ratio"},
	{"vertex.node_bytes_max", "MB"},
	{"vertex.compute_span_s", "s"},
	{"vertex.communicate_span_s", "s"},
	{"vertex.agg_span_s", "s"},
	{"cluster.compute_skew", "ratio"},
	{"obs.overhead_frac", "frac"},
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for an empty sample.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// result collects a run's measurements by metric name. A metric's
// reported value is the median of its samples; the rest is printed so the
// spread is visible.
type result struct {
	samples map[string][]float64
	notes   []string // extra report lines: workload shape, host
}

func newResult() *result { return &result{samples: make(map[string][]float64)} }

func (r *result) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// missing lists the declared metrics the run did not measure.
func (r *result) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if len(r.samples[d.Name]) == 0 {
			out = append(out, d.Name)
		}
	}
	return out
}

// printTable writes the human-readable report: one line per metric with
// its median, the sample count, and min..max.
func (r *result) printTable(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v := append([]float64(nil), r.samples[d.Name]...)
		if len(v) == 0 {
			fmt.Fprintf(w, "%-28s %14s %-6s (not measured)\n", d.Name, "-", d.Unit)
			continue
		}
		sort.Float64s(v)
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d range %.6g..%.6g\n",
			d.Name, median(v), d.Unit, len(v), v[0], v[len(v)-1])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+strings.TrimSpace(n))
	}
}

// metricJSON is one entry of the result line's "metrics" object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary returns the medians of the declared metrics for the result line.
func (r *result) summary(defs []metricDef) map[string]metricJSON {
	out := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		if v := r.samples[d.Name]; len(v) > 0 {
			out[d.Name] = metricJSON{Value: median(v), Unit: d.Unit}
		}
	}
	return out
}
