package main

import (
	"context"
	"net/http"
	"time"

	"thetis/internal/core"
	"thetis/internal/hungarian"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/server"
	"thetis/internal/table"
)

// replaySolves caps the score matrices assign.* replays.
const replaySolves = 20000

// spanHandler wraps the server so each request gets an "http.serve" span
// under the client's "request" span, which it carries to the backend in
// its context.
func spanHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr.do(decodeRef(r.Header.Get(spanHeader)), "http.serve", func(sr ref) {
			h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), refKey{}, sr)))
		})
	})
}

// layerFigures is everything a traced run measured, turned into the
// per-layer metrics by metrics().
type layerFigures struct {
	win      spanSet // the window's spans
	cnt      countSnap
	rt       runtimeSnap // runtime counters over the window
	sigmaNs  float64
	assignUs float64
	assignAl float64
	// HTTP requests: loopback request time minus the backend's own search
	// time (ms), and response sizes.
	envelope, respBytes []float64
	// Writes: service times of adds and removes (µs), times from when
	// each write was due (ms), and LSEI items re-signed.
	adds, removes, fromDue []float64
	resigned               int64
}

func (f *layerFigures) metrics() map[string]metric {
	nq := float64(f.cnt.queries)
	perQ := func(x float64) float64 { return x / nq }
	merge := sumDur(f.win.byName("merge"))
	hitRatio := 0.0
	if n := f.cnt.sigmaHits + f.cnt.sigmaMisses; n > 0 {
		hitRatio = float64(f.cnt.sigmaHits) / float64(n)
	}
	var legMs []float64
	for _, d := range f.win.byName("shard.leg") {
		legMs = append(legMs, ms(d))
	}
	gcFrac := 0.0
	if f.rt.totalCPU > 0 {
		gcFrac = f.rt.gcCPU / f.rt.totalCPU
	}
	return map[string]metric{
		"prefilter.ms_per_query":         {perQ(ms(sumDur(f.win.byName("prefilter")))), "ms"},
		"prefilter.candidates_per_query": {perQ(float64(f.cnt.candidates)), "tables"},
		"prefilter.probes_per_query":     {perQ(float64(f.cnt.probes)), "probes"},
		"sigma.evals_per_query":          {perQ(float64(f.cnt.sigmaEvals)), "evals"},
		"sigma.cache_hit_ratio":          {hitRatio, "ratio"},
		"sigma.ns_per_eval":              {f.sigmaNs, "ns"},
		"score.ms_per_query":             {perQ(ms(sumDur(f.win.byName("score")))), "ms"},
		"score.mapping_cpu_ms_per_query": {perQ(float64(f.cnt.mappingNs) / 1e6), "ms"},
		"score.tables_per_query":         {perQ(float64(f.cnt.tables)), "tables"},
		"score.scored_per_query":         {perQ(float64(f.cnt.scored)), "tables"},
		"assign.solves_per_query":        {perQ(float64(f.cnt.solves)), "solves"},
		"assign.us_per_solve":            {f.assignUs, "us"},
		"assign.allocs_per_solve":        {f.assignAl, "allocs"},
		"rank.ms_per_query":              {perQ(float64(f.cnt.rankNs)/1e6 + ms(merge)), "ms"},
		"shard.leg_ms_p50":               {percentile(legMs, 50), "ms"},
		"shard.leg_skew":                 {legSkew(f.win), "ratio"},
		"shard.merge_us_per_query":       {perQ(float64(merge) / 1e3), "us"},
		"http.envelope_ms_per_request":   {mean(f.envelope), "ms"},
		"http.bytes_per_response":        {mean(f.respBytes), "bytes"},
		"live.add_us_p50":                {percentile(f.adds, 50), "us"},
		"live.remove_us_p50":             {percentile(f.removes, 50), "us"},
		"live.resigned_items":            {float64(f.resigned), "items"},
		"live.write_p50_us":              {percentile(append([]float64(nil), f.fromDue...), 50) * 1000, "us"},
		"live.write_tail_ms":             {percentile(f.fromDue, tailPctFor(len(f.fromDue))), "ms"},
		"runtime.alloc_bytes_per_query":  {perQ(float64(f.rt.allocBytes)), "bytes"},
		"runtime.allocs_per_query":       {perQ(float64(f.rt.allocObjects)), "allocs"},
		"runtime.gc_cpu_fraction":        {gcFrac, "ratio"},
	}
}

// legSkew is the mean over scatter rounds of slowest leg over mean leg.
func legSkew(ss spanSet) float64 {
	rounds := make(map[int64][]float64)
	for _, s := range ss {
		if s.Name == "shard.leg" {
			rounds[s.Parent] = append(rounds[s.Parent], float64(s.dur()))
		}
	}
	var skews []float64
	for _, legs := range rounds {
		hi := 0.0
		for _, l := range legs {
			hi = max(hi, l)
		}
		if m := mean(legs); m > 0 {
			skews = append(skews, hi/m)
		}
	}
	return mean(skews)
}

// envelopes pairs each request span of phase with the backend span of the
// same request: the HTTP envelope is the difference.
func envelopes(ss spanSet) []float64 {
	backend := make(map[int64]time.Duration)
	for _, s := range ss {
		if s.Name == "backend" {
			backend[s.Req] += s.dur()
		}
	}
	var out []float64
	for _, s := range ss {
		if s.Name == "request" {
			out = append(out, ms(s.dur()-backend[s.Req]))
		}
	}
	return out
}

func (rt runtimeSnap) minus(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		allocBytes:   rt.allocBytes - b.allocBytes,
		allocObjects: rt.allocObjects - b.allocObjects,
		gcCPU:        rt.gcCPU - b.gcCPU,
		totalCPU:     rt.totalCPU - b.totalCPU,
	}
}

// window runs load for the window and fills the figures that cover it:
// spans, layer counts and runtime counters.
func (st *stack) window(f *layerFigures, load func() loadResult) loadResult {
	c0, r0 := st.snap(), readRuntime()
	lr := load()
	f.cnt, f.rt = st.snap().minus(c0), readRuntime().minus(r0)
	f.win = st.tr.phase("window")
	logf("traced window: %d requests, %.1f queries/s, p50 %.3fms (tracing on)",
		len(lr.lat), float64(lr.queries)/lr.elapsed.Seconds(), percentile(lr.lat, 50))
	return lr
}

// assignReplay rebuilds the score matrices S (Section 5.1: query entity ×
// column, summed σ) that the first requests' candidates give, up to
// replaySolves of them, and times hungarian.Maximize over them on one
// goroutine.
func (st *stack) assignReplay(f *layerFigures, qs []core.Query) {
	var mats [][][]float64
	for _, q := range qs {
		for _, l := range st.legs {
			cands := l.Lake().LiveTableIDs()
			if ix := l.Index(); ix != nil {
				if c := ix.Candidates(q, votes); len(c) > 0 {
					cands = c
				}
			}
			for _, id := range cands {
				t := l.Lake().Table(id)
				if t == nil || t.NumRows() == 0 || t.NumColumns() == 0 {
					continue
				}
				ci := l.Lake().ColumnIndex(id)
				for _, tu := range q {
					S := make([][]float64, len(tu))
					for i, e := range tu {
						S[i] = make([]float64, len(ci.Cols))
						for j, col := range ci.Cols {
							for x, ce := range col.Entities {
								S[i][j] += float64(col.Counts[x]) * st.tj.Score(e, ce)
							}
						}
					}
					mats = append(mats, S)
					if len(mats) == replaySolves {
						st.timeSolves(f, mats)
						return
					}
				}
			}
		}
	}
	st.timeSolves(f, mats)
}

// timeSolves runs hungarian.Maximize over mats, repeating the pass until
// at least 200ms have been measured, and records time and allocations
// per solve.
func (st *stack) timeSolves(f *layerFigures, mats [][][]float64) {
	if len(mats) == 0 {
		return
	}
	n := 0
	r0 := readRuntime()
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for _, S := range mats {
			hungarian.Maximize(S)
		}
		n += len(mats)
	}
	el := time.Since(start)
	r := readRuntime().minus(r0)
	f.assignUs = float64(el.Nanoseconds()) / 1e3 / float64(n)
	f.assignAl = float64(r.allocObjects) / float64(n)
	logf("assign replay: %d matrices, %d solves", len(mats), n)
}

// probe makes the read-only workloads' write figures: probeWrites/2
// reserve tables added, then removed again, one after another.
func (st *stack) probe(f *layerFigures, in *inputs, t *tally) {
	resigns := obs.IndexFilterResignsTotal(nil)
	before := resigns.Value()
	var ids []lake.TableID
	for _, tb := range in.reserve[:probeWrites/2] {
		start := time.Now()
		ids = append(ids, st.add(st.tr.request("probe"), tb))
		f.fromDue = append(f.fromDue, ms(time.Since(start)))
	}
	for _, id := range ids {
		start := time.Now()
		t.op(st.remove(st.tr.request("probe"), id), false)
		f.fromDue = append(f.fromDue, ms(time.Since(start)))
	}
	f.resigned = resigns.Value() - before
	f.writesFrom(st.tr.phase("probe"))
}

// writesFrom takes the add and remove service times from spans.
func (f *layerFigures) writesFrom(ss spanSet) {
	for _, d := range ss.byName("live.add") {
		f.adds = append(f.adds, float64(d)/1e3)
	}
	for _, d := range ss.byName("live.remove") {
		f.removes = append(f.removes, float64(d)/1e3)
	}
}

// finish computes the σ replay and writes the spans out.
func (st *stack) finish(f *layerFigures, workload string, seed int64) (map[string]metric, error) {
	f.sigmaNs = st.sim.nsPerEval()
	if err := st.tr.writeSpans(workload, seed); err != nil {
		return nil, err
	}
	return f.metrics(), nil
}

// traceHTTPSharded is http-sharded-lsh with a 2-leg stack behind the
// loopback server.
func traceHTTPSharded(in *inputs, cfg config, t *tally) (map[string]metric, error) {
	reqs := in.mixed()
	want := lshReference(in, reqs, t)
	ss := buildSharded(in.g, in.base)
	st := newStack(in.g, in.base, 2, true)
	st.tr = newTracer()
	lb, err := startLoopback(spanHandler(st.tr, server.New(&tracedBackend{Backend: ss, st: st}, server.WithMaxInFlight(maxInFlight))))
	if err != nil {
		return nil, err
	}
	defer lb.close()
	clients := make([]*client, nclients)
	for i := range clients {
		clients[i] = newClient(lb.url)
		defer clients[i].close()
	}
	ask := func(c int, r request, phase string) (time.Duration, int) {
		var rep httpReply
		var err error
		start := time.Now()
		st.tr.do(st.tr.request(phase), "request", func(rr ref) {
			rep, err = clients[c].search(context.Background(), r.text, encodeRef(rr))
		})
		d := time.Since(start)
		if err != nil {
			t.op(err, false)
			return d, 0
		}
		t.check(sameRanking(rep.results, want[r.idx]))
		return d, rep.bytes
	}
	warmUp(reqs, func(q core.Query) { st.search(context.Background(), st.tr.request("warmup"), q, topK) })
	var f layerFigures
	// Each client goroutine appends to its own slice of response sizes.
	perClient := make([][]float64, nclients)
	st.window(&f, func() loadResult {
		return closedLoop(nclients, cfg.window, func(c int, n int64) (int, time.Duration) {
			d, size := ask(c, reqs[n%int64(len(reqs))], "window")
			perClient[c] = append(perClient[c], float64(size))
			return 1, d
		})
	})
	for _, b := range perClient {
		f.respBytes = append(f.respBytes, b...)
	}
	f.envelope = envelopes(f.win)
	st.assignReplay(&f, []core.Query{in.q5[0], in.q1[0], in.q5[1], in.q1[1]})
	st.probe(&f, in, t)
	return st.finish(&f, cfg.name, in.seed)
}

// httpReplay sends requests once more through a loopback server over the
// stack, so workloads served in-process still get an HTTP envelope
// figure: what serving the same requests over HTTP would add.
func (st *stack) httpReplay(f *layerFigures, facade server.Backend, send func(c *client, span string) (httpReply, error), n int, t *tally) error {
	lb, err := startLoopback(spanHandler(st.tr, server.New(&tracedBackend{Backend: facade, st: st}, server.WithMaxInFlight(maxInFlight))))
	if err != nil {
		return err
	}
	defer lb.close()
	c := newClient(lb.url)
	defer c.close()
	for i := 0; i < n; i++ {
		var rep httpReply
		st.tr.do(st.tr.request("replay"), "request", func(rr ref) { rep, err = send(c, encodeRef(rr)) })
		t.op(err, false)
		if err == nil {
			f.respBytes = append(f.respBytes, float64(rep.bytes))
		}
	}
	f.envelope = envelopes(st.tr.phase("replay"))
	return nil
}

// traceScanBatch is scan-batch with a 1-leg stack without an index,
// batches going through core.Engine.SearchBatchContext.
func traceScanBatch(in *inputs, cfg config, t *tally) (map[string]metric, error) {
	sys := buildSystem(in.g, in.base, false)
	want := scanReference(in, sys, t)
	st := newStack(in.g, in.base, 1, false)
	st.tr = newTracer()
	batches := in.scanBatches()
	ask := func(b []int, phase string) time.Duration {
		var res [][]core.Result
		start := time.Now()
		st.tr.do(st.tr.request(phase), "request", func(rr ref) { res = st.searchBatch(context.Background(), rr, in.pick(b), topK) })
		d := time.Since(start)
		t.check(sameBatch(res, b, want))
		return d
	}
	// One full scan builds every table's column index.
	ask(batches[0], "warmup")
	var f layerFigures
	st.window(&f, func() loadResult {
		return closedLoop(1, cfg.window, func(_ int, n int64) (int, time.Duration) {
			return batchSize, ask(batches[n%int64(len(batches))], "window")
		})
	})
	i := 0
	err := st.httpReplay(&f, sys, func(c *client, span string) (httpReply, error) {
		b := batches[i]
		texts := make([]string, len(b))
		for j, q := range b {
			texts[j] = in.text5[q]
		}
		res, rep, err := c.searchBatch(context.Background(), texts, span)
		if err == nil {
			t.check(sameBatch(res, b, want))
		}
		i++
		return rep, err
	}, scanQueries/batchSize, t)
	if err != nil {
		return nil, err
	}
	st.assignReplay(&f, in.q5[:1])
	st.probe(&f, in, t)
	return st.finish(&f, cfg.name, in.seed)
}

// traceLiveChurn is live-churn with a 1-leg LSH stack: reads and the
// open-loop writes both go through it.
func traceLiveChurn(in *inputs, cfg config, t *tally) (map[string]metric, error) {
	reqs := in.mixed()
	ops, finalIDs := churnSchedule(in, churnWrites(cfg))
	st := newStack(in.g, in.base, 1, true)
	st.tr = newTracer()
	ask := func(r request, phase string) time.Duration {
		var res []core.Result
		start := time.Now()
		st.tr.do(st.tr.request(phase), "request", func(rr ref) { res = st.search(context.Background(), rr, r.q, topK) })
		d := time.Since(start)
		t.check(checkRanking(res, topK))
		return d
	}
	warmUp(reqs, func(q core.Query) { st.search(context.Background(), st.tr.request("warmup"), q, topK) })
	var f layerFigures
	var ws writeStats
	st.window(&f, func() loadResult {
		done := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(done)
			ws = writer(start, ops,
				func(tb *table.Table) lake.TableID { return st.add(st.tr.request("window"), tb) },
				func(id lake.TableID) error { return st.remove(st.tr.request("window"), id) }, t)
		}()
		lr := closedLoop(1, cfg.window, func(_ int, n int64) (int, time.Duration) {
			return 1, ask(reqs[n%int64(len(reqs))], "window")
		})
		<-done
		return lr
	})
	ws.log()
	f.fromDue, f.resigned = ws.fromDue, ws.resigned
	f.writesFrom(f.win)
	churnFinalCheck(in, reqs, finalIDs, func(q core.Query) []core.Result {
		return st.search(context.Background(), st.tr.request("check"), q, topK)
	}, t)
	facade := buildSystem(in.g, nil, false)
	i := 0
	err := st.httpReplay(&f, facade, func(c *client, span string) (httpReply, error) {
		rep, err := c.search(context.Background(), reqs[i].text, span)
		if err == nil {
			t.check(checkRanking(rep.results, topK))
		}
		i++
		return rep, err
	}, len(reqs), t)
	if err != nil {
		return nil, err
	}
	st.assignReplay(&f, []core.Query{in.q5[0], in.q1[0], in.q5[1], in.q1[1]})
	return st.finish(&f, cfg.name, in.seed)
}
