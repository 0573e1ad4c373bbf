package main

import (
	"strings"

	"dstress/internal/obs"
)

// foldTrace turns one traced query's spans and counters into per-layer
// metrics. The names are the ones the program already records (see
// DESIGN.md "Observability"); nothing here adds instrumentation. On tcp
// the spans are the nodes' own tables merged into the driving process's trace, so
// span sums add up every node's share of the work. Aggregation is folded
// from "phase/agg": the "agg/*" spans exist only under tree aggregation,
// which no workload uses.
func foldTrace(res *result, tr *obs.Trace) {
	var blk, tx, compute, communicate, agg float64
	for _, sp := range tr.Spans() {
		d := float64(sp.Dur) / 1e9
		switch n := sp.Name; {
		case strings.HasPrefix(n, "iter/") && strings.Contains(n, "/blk/") && strings.HasSuffix(n, "/gmw"):
			blk += d
		case strings.HasPrefix(n, "iter/") && strings.HasSuffix(n, "/compute"):
			compute += d
		case strings.HasPrefix(n, "iter/") && strings.HasSuffix(n, "/communicate"):
			communicate += d
		case strings.HasPrefix(n, "tx/") || strings.Contains(n, "/tx/"):
			// sim: "tx/<iter>/<u>/<v>"; tcp nodes name the span by the
			// wire tag under the query root plus their role.
			tx += d
		case n == "phase/agg":
			agg += d
		}
	}
	res.add("gmw.block_s", blk)
	res.add("transfer.tx_s", tx)
	res.add("vertex.compute_span_s", compute)
	res.add("vertex.communicate_span_s", communicate)
	res.add("vertex.agg_span_s", agg)

	counters := tr.Counters()
	res.add("gmw.and_rounds", float64(counters["gmw/and_rounds"]))
	res.add("gmw.and_gates", float64(counters["gmw/and_gates"]))
	res.add("ot.derand_bits", float64(counters["ot/derand_bits"]))
	msgs := map[string]int64{}
	bytes := map[string]int64{}
	for name, v := range counters {
		family, stat, ok := netCounter(name)
		if !ok {
			continue
		}
		switch stat {
		case "msgs_sent":
			msgs[family] += v
		case "bytes_sent":
			bytes[family] += v
		}
	}
	for _, f := range []string{"blk", "tx", "agg", "init"} {
		res.add("network.msgs."+f, float64(msgs[f]))
		res.add("network.bytes."+f, float64(bytes[f])/1e6)
	}
}

// netCounter splits a transport counter "net/q/<id>/<layer>/<stat>" into
// its message family and statistic. Layers starting with "agg" (the flat
// and tree aggregation tags) fold into one "agg" family.
func netCounter(name string) (family, stat string, ok bool) {
	parts := strings.Split(name, "/")
	if len(parts) != 5 || parts[0] != "net" || parts[1] != "q" {
		return "", "", false
	}
	family = parts[3]
	if strings.HasPrefix(family, "agg") {
		family = "agg"
	}
	return family, parts[4], true
}
