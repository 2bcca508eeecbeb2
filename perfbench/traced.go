package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/xmltree"
)

// ledgerTolerance bounds how far the sum of one request's per-layer self
// times may sit from its traced end-to-end median, as a share of that
// median.
const ledgerTolerance = 0.15

// The traced run's sample sizes.
const (
	pollEvery    = 64  // requests per connection between flight-recorder polls
	explainReads = 400 // in-process EXPLAIN ANALYZE executions, spread over the mix
	ledgerReps   = 40  // sequential requests in each ledger probe
)

// ingressLayer is a write's time from HTTP ingress to the enqueue stamp:
// request decode and fragment parse.
const ingressLayer = "server.write_ingress_us"

// stageLayer names the layer a write-pipeline stamp closes: a stage's self
// time is the gap from the stamp before it on the request's sorted
// timeline, so overlapping stages are never counted twice.
var stageLayer = map[string]string{
	obs.StageWALAppend: "storage.wal_append_us",
	obs.StageFsyncDone: "storage.fsync_us",
	obs.StageDequeue:   "document.intake_us",
	obs.StageMerged:    "document.apply_us",
	obs.StagePublished: "document.publish_us",
	obs.StageVisible:   "document.visible_us",
}

// execLayer maps an EXPLAIN ANALYZE span to its layer metric.
func execLayer(span string) string {
	switch {
	case span == "plan":
		return "query.plan_us"
	case span == "navigate":
		return "xpath.navigate_us"
	case strings.HasPrefix(span, "twig_match"):
		return "twig.match_us"
	case span == "resolve":
		return "core.resolve_us"
	}
	return "index.join_us" // seed, semi-join kernels, boxed pipelines
}

var execLayers = []string{"query.plan_us", "index.join_us", "twig.match_us", "xpath.navigate_us", "core.resolve_us"}

// flightLog collects the flight recorder's query records during the polled
// phase. Each connection polls it after every pollEvery of its requests;
// that polling is the benchmark's own cost, which the run reports as
// trace.poll_overhead_us.
type flightLog struct {
	in    *instance
	since time.Time
	calls atomic.Int64
	mu    sync.Mutex
	recs  map[uint64]obs.RequestSummary
	err   error
}

func (f *flightLog) tick() {
	if f == nil || f.calls.Add(1)%pollEvery != 0 {
		return
	}
	f.poll()
}

func (f *flightLog) poll() {
	recs, err := f.in.flight()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.err = err
		return
	}
	for _, r := range recs {
		if r.Kind == "query" && !r.Start.Before(f.since) {
			f.recs[r.ID] = r
		}
	}
}

// runtimeCPU reads the process's GC and busy CPU seconds.
func runtimeCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// timeOpenPath times the open path's public calls on each generated
// source: parse, numbering, name index and DataGuide, in milliseconds
// summed over the catalog.
func timeOpenPath(docs []genDoc, m map[string]metric) error {
	var parse, build, ix, guide time.Duration
	for _, g := range docs {
		t := time.Now()
		tree, err := xmltree.ParseString(g.src)
		if err != nil {
			return err
		}
		parse += time.Since(t)
		t = time.Now()
		// The partition document.Options selects by default.
		num, err := core.Build(tree, core.Options{Partition: core.PartitionConfig{MaxAreaNodes: 64, AdjustFanout: true}})
		if err != nil {
			return err
		}
		build += time.Since(t)
		t = time.Now()
		index.Build(tree.DocumentElement(), num)
		ix += time.Since(t)
		t = time.Now()
		dataguide.Build(tree)
		guide += time.Since(t)
	}
	m["xmltree.parse_ms"] = metric{ms(parse), "ms"}
	m["core.build_ms"] = metric{ms(build), "ms"}
	m["index.build_ms"] = metric{ms(ix), "ms"}
	m["dataguide.build_ms"] = metric{ms(guide), "ms"}
	return nil
}

// explain runs r in process on the server's current snapshot under an
// EXPLAIN ANALYZE trace and returns the time per layer in microseconds.
func (ss *session) explain(r read) (map[string]float64, error) {
	d, err := ss.in.srv.Catalog().Get(r.doc)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTrace(r.query)
	nodes, _, err := d.Snapshot().QueryMetered(r.query, tr, budget.NewMeter(context.Background(), budget.Limits{}))
	if err != nil {
		return nil, err
	}
	if !ss.w.answerOK(ss.docs, r, len(nodes)) {
		return nil, fmt.Errorf("in-process %s on %s = %d", r.query, r.doc, len(nodes))
	}
	out := map[string]float64{}
	for _, sp := range tr.Spans() {
		out[execLayer(sp.Name())] += us(sp.Duration())
	}
	return out, nil
}

// writeParts splits the server side of one write into its layers' self
// times: ingress to enqueue, then each pipeline stage as the gap from the
// stamp before it. Together they cover ingress to the visible stamp.
func writeParts(s sample) map[string]float64 {
	parts := map[string]float64{}
	var enq, prev int64 = -1, 0
	for _, st := range s.stages {
		if st.Name == obs.StageEnqueue {
			enq, prev = st.OffsetUS, st.OffsetUS
			parts[ingressLayer] = float64(st.OffsetUS)
			continue
		}
		if layer, ok := stageLayer[st.Name]; ok && enq >= 0 {
			parts[layer] += float64(st.OffsetUS - prev)
			prev = st.OffsetUS
		}
	}
	return parts
}

// ledger sums the medians of per-request layer times and compares the sum
// with the median round trip, printing the breakdown.
func ledger(name string, rtt []float64, parts map[string][]float64) float64 {
	e2e := medianOf(rtt)
	names := make([]string, 0, len(parts))
	for k := range parts {
		names = append(names, k)
	}
	sort.Strings(names)
	sum := 0.0
	var b strings.Builder
	for _, k := range names {
		v := medianOf(parts[k])
		sum += v
		fmt.Fprintf(&b, " %s=%.1f", k, v)
	}
	gap := math.Abs(sum-e2e) / e2e
	logf("ledger %s: e2e median %.1fus, layer sum %.1fus, gap %.3f (tolerance %.2f):%s", name, e2e, sum, gap, ledgerTolerance, b.String())
	return gap
}

// queryLedger sends r ledgerReps times in sequence, each followed by the
// same query in process under EXPLAIN ANALYZE, and sums the layers of one
// query request.
func (ss *session) queryLedger(r read) (float64, error) {
	since := time.Now()
	var rtt []float64
	parts := map[string][]float64{}
	for i := 0; i < ledgerReps; i++ {
		s := ss.in.query(ss.w, ss.docs, r)
		if s.outcome != outOK {
			return 0, fmt.Errorf("ledger query %s: outcome %d", r.query, s.outcome)
		}
		rtt = append(rtt, us(s.rtt))
		parts["server.http_us"] = append(parts["server.http_us"], us(s.rtt)-float64(s.elapsedUS))
		layers, err := ss.explain(r)
		if err != nil {
			return 0, err
		}
		for _, l := range execLayers {
			parts[l] = append(parts[l], layers[l])
		}
	}
	recs, err := ss.in.flight()
	if err != nil {
		return 0, err
	}
	var queue []float64
	for _, rec := range recs {
		if rec.Kind == "query" && rec.Doc == r.doc && !rec.Start.Before(since) {
			queue = append(queue, float64(rec.QueueUS))
		}
	}
	// The round trip minus elapsedUs includes any admission wait; move it
	// to its own layer.
	q := medianOf(queue)
	parts["server.admission_wait_us"] = []float64{q}
	for i := range parts["server.http_us"] {
		parts["server.http_us"][i] -= q
	}
	return ledger("query "+r.query, rtt, parts), nil
}

// writeLedger sends ledgerReps writes in sequence from write number first
// on and sums the layers of one write request. HTTP is the round trip minus
// the server's own duration of the request, from its flight record; the
// stage layers come from the response's stamps. The two are independent
// figures, so the sum misses by whatever server time no stamp covers, such
// as the response encode after the visible stamp.
func (ss *session) writeLedger(first int) (float64, error) {
	var writes []sample
	for j := 0; j < ledgerReps; j++ {
		s := ss.writeAt(first + j)
		if s.outcome != outOK {
			return 0, fmt.Errorf("ledger write %d: outcome %d", first+j, s.outcome)
		}
		writes = append(writes, s)
	}
	recs, err := ss.in.flight()
	if err != nil {
		return 0, err
	}
	server := map[uint64]float64{}
	for _, r := range recs {
		server[r.ID] = float64(r.DurationUS)
	}
	var rtt []float64
	parts := map[string][]float64{}
	for _, s := range writes {
		d, ok := server[s.traceID]
		if !ok {
			return 0, fmt.Errorf("ledger write: request %d not in the flight recorder", s.traceID)
		}
		rtt = append(rtt, us(s.rtt))
		parts["server.http_us"] = append(parts["server.http_us"], us(s.rtt)-d)
		for k, v := range writeParts(s) {
			parts[k] = append(parts[k], v)
		}
	}
	return ledger("write", rtt, parts), nil
}

// runTraced runs the workload's traced variant: a plain and a polled load
// phase of equal length on the same schedule, in-process EXPLAIN ANALYZE
// executions of the read mix, and the ledger probes. The server mints a
// RequestCtx and fills its flight recorder for every request in both
// phases; only the polled phase reads the recorder, so the phases' median
// latency difference is the cost of that polling, not of the program's
// tracing, which has no off switch.
func runTraced(w *workload, tmp string) (*result, error) {
	docs, err := w.generate()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	if err := timeOpenPath(docs, m); err != nil {
		return nil, err
	}
	w.setups = 1
	ss, _, _, err := setUp(w, docs, tmp)
	if err != nil {
		return nil, err
	}
	defer func() { ss.in.stop() }()
	if err := ss.warmUp(); err != nil {
		return nil, err
	}

	half := time.Duration(w.seconds) * time.Second / 2
	plain := ss.measure("plain", half, 0, warmWrites, w.writes/2)

	ss.flight = &flightLog{in: ss.in, since: time.Now(), recs: map[uint64]obs.RequestSummary{}}
	before, err := ss.in.metrics()
	if err != nil {
		return nil, err
	}
	gc0, busy0 := runtimeCPU()
	polled := ss.measure("polled", half, 0, warmWrites+w.writes/2, w.writes/2)
	gc1, busy1 := runtimeCPU()
	ss.flight.poll()
	if ss.flight.err != nil {
		return nil, ss.flight.err
	}
	after, err := ss.in.metrics()
	if err != nil {
		return nil, err
	}
	recs := ss.flight.recs
	ss.flight = nil
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Server layers, from the polled phase's responses and flight records.
	var httpUS, late []float64
	var postings, results, paths float64
	for _, s := range polled.open {
		late = append(late, float64(s.late))
		if s.outcome == outOK {
			httpUS = append(httpUS, us(s.rtt)-float64(s.elapsedUS))
			postings += float64(s.postings)
			results += float64(s.count)
			paths += float64(s.paths)
		}
	}
	var queue float64
	for _, r := range recs {
		queue += float64(r.QueueUS)
	}
	all := count(append(append([]sample(nil), polled.open...), polled.closed...))
	m["server.http_us"] = metric{medianOf(httpUS), "us"}
	m["server.admission_wait_us"] = metric{ratio(queue, float64(len(recs))), "us"}
	m["server.shed_frac"] = metric{ratio(float64(all.shed), float64(all.sent)), "frac"}
	m["index.postings_per_result"] = metric{ratio(postings, results), "count"}
	m["exec.shards_per_query"] = metric{ratio(delta("ruid_exec_shards"), delta("ruid_query_count")), "count"}
	m["core.resolve_useful_frac"] = metric{ratio(paths, results), "frac"}
	m["loadgen.late_p99_ms"] = metric{quantile(late, 0.99) / float64(time.Millisecond), "ms"}
	m["trace.poll_overhead_us"] = metric{us(percentile(polled.open, 0.5) - percentile(plain.open, 0.5)), "us"}
	m["runtime.gc_cpu_frac"] = metric{ratio(gc1-gc0, busy1-busy0), "frac"}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	m["runtime.heap_live_mb"] = metric{float64(s[0].Value.Uint64()) / (1 << 20), "MB"}

	// Write layers: stage self times of the polled phase's writes, and the
	// write path's counters.
	stages := map[string][]float64{}
	for _, s := range polled.closed {
		if s.outcome == outOK {
			for k, v := range writeParts(s) {
				stages[k] = append(stages[k], v)
			}
		}
	}
	m[ingressLayer] = metric{medianOf(stages[ingressLayer]), "us"}
	for _, layer := range stageLayer {
		m[layer] = metric{medianOf(stages[layer]), "us"}
	}
	m["document.batch_size"] = metric{ratio(delta("ruid_write_batch_size_sum"), delta("ruid_write_batch_size_count")), "count"}
	full := delta("ruid_doc_publish_full")
	m["document.full_publish_frac"] = metric{ratio(full, full+delta("ruid_doc_publish_incremental")), "frac"}
	m["index.postings_reencoded_per_mutation"] = metric{ratio(delta("ruid_index_delta_postings_reencoded"), delta("ruid_write_applied")), "count"}
	m["storage.wal_bytes_per_mutation"] = metric{ratio(delta("ruid_write_wal_bytes"), delta("ruid_write_wal_appends")), "B"}

	// Execution layers: per read of the mix, the mean over the mix's reads
	// of each one's median EXPLAIN ANALYZE span times.
	distinct := map[read][]map[string]float64{}
	for _, r := range w.mix {
		distinct[r] = nil
	}
	reps := explainReads/len(distinct) + 1
	for r := range distinct {
		for i := 0; i < reps; i++ {
			layers, err := ss.explain(r)
			if err != nil {
				return nil, err
			}
			distinct[r] = append(distinct[r], layers)
		}
	}
	for _, l := range execLayers {
		sum := 0.0
		for _, runs := range distinct {
			v := make([]float64, len(runs))
			for i, layers := range runs {
				v[i] = layers[l]
			}
			sum += medianOf(v)
		}
		m[l] = metric{sum / float64(len(distinct)), "us"}
	}

	// Ledger probes: one query request, and on write_mix one write request.
	qgap, err := ss.queryLedger(w.ledger)
	if err != nil {
		return nil, err
	}
	m["ledger.query_gap_frac"] = metric{qgap, "frac"}
	wgap := 0.0
	if w.writes > 0 {
		if wgap, err = ss.writeLedger(warmWrites + w.writes); err != nil {
			return nil, err
		}
	}
	m["ledger.write_gap_frac"] = metric{wgap, "frac"}
	if err := ss.in.verify(w, ss.docs); err != nil {
		return nil, fmt.Errorf("after load: %w", err)
	}
	return &result{
		Correct:   ss.total.wrong == 0 && ss.total.errors == 0 && qgap <= ledgerTolerance && wgap <= ledgerTolerance,
		Attempted: ss.total.sent,
		Failed:    ss.total.failed(),
		Metrics:   m,
	}, nil
}
