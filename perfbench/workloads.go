package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"thetis"
	"thetis/internal/core"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/server"
	"thetis/internal/table"
)

// Workload parameters. The README's tables restate them; change both
// together.
const (
	// setupRuns is how many times a run sets the system up; setup_s is
	// the median.
	setupRuns = 5
	// batchSize is the number of 5-tuple queries per scan-batch request.
	batchSize = 4
	// scanQueries is how many of the 5-tuple queries scan-batch cycles
	// through: about as many as a window's full scans can answer.
	scanQueries = 64
	// writeRate is live-churn's open-loop mutation rate per second; two of
	// every three mutations add a reserve table, the third removes a
	// random live table.
	writeRate = 30
)

// Tail percentile of read latency per workload: the highest percentile
// that keeps at least ten samples beyond it at the request counts a
// 15-second window gives on a 2-vCPU machine (README, "Latency tails").
const (
	httpTailPct  = 99
	scanTailPct  = 90
	churnTailPct = 99
)

var httpShardedLSH = workload{
	name:    "http-sharded-lsh",
	run:     runHTTPSharded,
	traced:  traceHTTPSharded,
	reserve: func(config) int { return probeWrites / 2 },
}

var scanBatch = workload{
	name:    "scan-batch",
	run:     runScanBatch,
	traced:  traceScanBatch,
	reserve: func(config) int { return probeWrites / 2 },
}

var liveChurn = workload{
	name:    "live-churn",
	run:     runLiveChurn,
	traced:  traceLiveChurn,
	reserve: func(cfg config) int { n := churnWrites(cfg); return n - n/3 },
}

// setUp runs build setupRuns times, each after a forced collection so
// one set-up's garbage is not charged to the next, and returns each
// set-up's wall time in seconds. build must release the previous
// set-up's system itself.
func setUp(build func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	logf("set-up: %.3fs median of %v", median(out), out)
	return out, nil
}

// endToEnd assembles the end-to-end metrics of a timed run.
func endToEnd(setup []float64, heapMB float64, lr loadResult, tailPct, ndcg float64) map[string]metric {
	n := len(lr.lat)
	logf("queries per second of the window: %v; process CPU %.2f ms/query", lr.slices, lr.cpu*1000/float64(lr.queries))
	logf("window: %d requests, %d queries in %.2fs; tail p%g keeps %d samples beyond it",
		n, lr.queries, lr.elapsed.Seconds(), tailPct, n-int(math.Ceil(tailPct/100*float64(n))))
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"qps":             {float64(lr.queries) / lr.elapsed.Seconds(), "queries/s"},
		"latency_p50_ms":  {percentile(lr.lat, 50), "ms"},
		"latency_tail_ms": {percentile(lr.lat, tailPct), "ms"},
		"heap_live_mb":    {heapMB, "MB"},
		"ndcg10":          {ndcg, "score"},
	}
}

// lshReference ranks every request on an unsharded System with the LSH
// index over the base corpus and checks each ranking's properties and
// scores against the oracle. The result, indexed by request.idx, is what
// the LSH workloads' answers must equal.
func lshReference(in *inputs, reqs []request, t *tally) [][]core.Result {
	ref := buildSystem(in.g, in.base, true)
	o := newOracle(in.g, in.base)
	want := make([][]core.Result, len(reqs))
	cost := make([]float64, len(reqs))
	forEach(len(reqs), func(i int) {
		r := reqs[i]
		start := time.Now()
		res := ref.SearchContext(context.Background(), r.q, topK)
		cost[i] = ms(time.Since(start))
		t.check(errors.Join(checkRanking(res, topK), o.query(r.q).checkScores(res)))
		want[r.idx] = res
	})
	m := mean(cost)
	v := 0.0
	for _, c := range cost {
		v += (c - m) * (c - m)
	}
	logf("reference cost: mean %.2fms, cv %.2f over %d requests", m, math.Sqrt(v/float64(len(cost)))/m, len(cost))
	return want
}

// warmUp runs every request once, nproc at a time, before the window:
// tables' column indexes are built lazily on first use.
func warmUp(reqs []request, search func(core.Query)) {
	start := time.Now()
	forEach(len(reqs), func(i int) { search(reqs[i].q) })
	logf("warm-up: %.2fs", time.Since(start).Seconds())
}

// forEach runs fn(0..n-1) on nproc goroutines.
func forEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += nproc {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// runHTTPSharded: two closed-loop clients post a 1:1 mix of 1-tuple and
// 5-tuple searches to a loopback server over a 2-shard LSH system. Every
// answer must equal the unsharded system's ranking (partition
// invariance), whose scores the oracle checks.
func runHTTPSharded(in *inputs, cfg config, t *tally) (map[string]metric, error) {
	var (
		lb *loopback
		ss *thetis.ShardedSystem
	)
	setup, err := setUp(func() error {
		if lb != nil {
			lb.close()
			lb, ss = nil, nil
		}
		ss = buildSharded(in.g, in.base)
		var err error
		lb, err = startLoopback(server.New(ss, server.WithMaxInFlight(maxInFlight)))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer lb.close()
	heap := liveHeapMB()

	reqs := in.mixed()
	start := time.Now()
	want := lshReference(in, reqs, t)
	logf("reference + oracle: %.2fs", time.Since(start).Seconds())
	ndcg := in.meanNDCG(in.base, want, func(i int) int { return i / 2 })

	clients := make([]*client, nclients)
	for i := range clients {
		clients[i] = newClient(lb.url)
		defer clients[i].close()
	}
	ask := func(c int, r request) time.Duration {
		start := time.Now()
		rep, err := clients[c].search(context.Background(), r.text, "")
		d := time.Since(start)
		if err != nil {
			t.op(err, false)
			return d
		}
		t.check(sameRanking(rep.results, want[r.idx]))
		return d
	}
	warmUp(reqs, func(q core.Query) { ss.SearchContext(context.Background(), q, topK) })
	lr := closedLoop(nclients, cfg.window, func(c int, n int64) (int, time.Duration) {
		return 1, ask(c, reqs[n%int64(len(reqs))])
	})
	return endToEnd(setup, heap, lr, httpTailPct, ndcg), nil
}

// scanReference ranks every 5-tuple query sequentially on sys and checks
// each ranking against the oracle's full ranking of the corpus.
func scanReference(in *inputs, sys *thetis.System, t *tally) [][]core.Result {
	want := make([][]core.Result, scanQueries)
	for i, q := range in.q5[:scanQueries] {
		want[i] = sys.SearchContext(context.Background(), q, topK)
	}
	o := newOracle(in.g, in.base)
	forEach(scanQueries, func(i int) {
		full := o.query(in.q5[i]).ranking()
		t.check(errors.Join(checkRanking(want[i], topK), checkTopK(want[i], full, topK)))
	})
	return want
}

// runScanBatch: one closed-loop client sends batches of 5-tuple queries
// through SearchBatchContext to an unsharded System without an index
// (Algorithm 1's full scan). Every batch must equal sequential
// SearchContext calls, which the oracle checks in full.
func runScanBatch(in *inputs, cfg config, t *tally) (map[string]metric, error) {
	var sys *thetis.System
	setup, err := setUp(func() error {
		sys = nil
		sys = buildSystem(in.g, in.base, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()

	start := time.Now()
	want := scanReference(in, sys, t)
	logf("reference + oracle: %.2fs", time.Since(start).Seconds())
	ndcg := in.meanNDCG(in.base, want, func(i int) int { return i })

	batches := in.scanBatches()
	lr := closedLoop(1, cfg.window, func(_ int, n int64) (int, time.Duration) {
		b := batches[n%int64(len(batches))]
		start := time.Now()
		res, _ := sys.SearchBatchContext(context.Background(), in.pick(b), topK)
		d := time.Since(start)
		t.check(sameBatch(res, b, want))
		return batchSize, d
	})
	return endToEnd(setup, heap, lr, scanTailPct, ndcg), nil
}

// scanBatches draws scan-batch's request sequence from the seed: each
// batch holds batchSize distinct queries out of the first scanQueries.
// Drawing batches, rather than cycling a fixed partition of the queries,
// keeps the latency tail from resting on the few costliest fixed batches.
func (in *inputs) scanBatches() [][]int {
	rng := rand.New(rand.NewSource(in.seed))
	out := make([][]int, 1024) // more than a window's worth of batches
	for i := range out {
		out[i] = rng.Perm(scanQueries)[:batchSize]
	}
	return out
}

// pick returns the 5-tuple queries with the given indices.
func (in *inputs) pick(idx []int) []core.Query {
	qs := make([]core.Query, len(idx))
	for i, q := range idx {
		qs[i] = in.q5[q]
	}
	return qs
}

// sameBatch verifies that a batch's rankings equal the sequential ones.
func sameBatch(res [][]core.Result, idx []int, want [][]core.Result) error {
	var errs []error
	for i, q := range idx {
		errs = append(errs, sameRanking(res[i], want[q]))
	}
	return errors.Join(errs...)
}

// mutation is one scheduled live-churn write.
type mutation struct {
	add bool
	t   *table.Table // the table an add ingests
	id  lake.TableID // the ID an add must get, or the table a removal drops
}

func churnWrites(cfg config) int { return writeRate * int(cfg.window/time.Second) }

// scheduleSeed fixes which tables live-churn removes. Like the lake, the
// schedule does not vary with the run's seed: which mutations flip a type
// across the frequent-type threshold, and so how many LSEI items get
// re-signed, depends on it, and that should not differ between runs.
const scheduleSeed = 7

// churnSchedule draws live-churn's writes: two adds of the next reserve
// tables, then one removal of a random live table, repeated. It returns
// the writes and the final corpus's table IDs in ascending order.
func churnSchedule(in *inputs, n int) ([]mutation, []lake.TableID) {
	rng := rand.New(rand.NewSource(scheduleSeed))
	live := make([]lake.TableID, len(in.base))
	for i := range live {
		live[i] = lake.TableID(i)
	}
	next := lake.TableID(len(in.base))
	var ops []mutation
	for i, r := 0, 0; i < n; i++ {
		if i%3 == 2 {
			j := rng.Intn(len(live))
			ops = append(ops, mutation{id: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		ops = append(ops, mutation{add: true, t: in.reserve[r], id: next})
		live = append(live, next)
		r++
		next++
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	return ops, live
}

// tableByID resolves a live-churn table ID to its table.
func (in *inputs) tableByID(id lake.TableID) *table.Table {
	if int(id) < len(in.base) {
		return in.base[id]
	}
	return in.reserve[int(id)-len(in.base)]
}

// writeStats is what live-churn's writer measured.
type writeStats struct {
	fromDue  []float64 // ms from when each write was due to when it returned
	service  []float64 // ms each write call took
	resigned int64     // LSEI items re-signed by frequent-type filter flips
	lag      time.Duration
}

func (ws writeStats) log() {
	logf("writes: %d, p50 %.1fus from due, tail p%g %.2fms, max service %.1fms, writer ended %.2fs late, %d items re-signed",
		len(ws.fromDue), percentile(append([]float64(nil), ws.fromDue...), 50)*1000, tailPctFor(len(ws.fromDue)),
		percentile(append([]float64(nil), ws.fromDue...), tailPctFor(len(ws.fromDue))),
		percentile(append([]float64(nil), ws.service...), 100), ws.lag.Seconds(), ws.resigned)
}

// tailPctFor is the highest whole percentile that leaves at least ten of n
// samples beyond it (99 at most).
func tailPctFor(n int) float64 {
	for p := 99.0; p > 50; p-- {
		if float64(n)-math.Ceil(p/100*float64(n)) >= 10 {
			return p
		}
	}
	return 50
}

// writer applies ops on their open-loop schedule from start, one every
// 1/writeRate seconds, timing each from when it was due.
func writer(start time.Time, ops []mutation, add func(*table.Table) lake.TableID, remove func(lake.TableID) error, t *tally) writeStats {
	resigns := obs.IndexFilterResignsTotal(nil)
	before := resigns.Value()
	period := time.Second / writeRate
	var ws writeStats
	for i, op := range ops {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		if op.add {
			if id := add(op.t); id != op.id {
				t.check(fmt.Errorf("AddTable returned ID %d, want %d", id, op.id))
			} else {
				t.check(nil)
			}
		} else {
			t.op(remove(op.id), false)
		}
		end := time.Now()
		ws.fromDue = append(ws.fromDue, ms(end.Sub(due)))
		ws.service = append(ws.service, ms(end.Sub(t0)))
	}
	ws.lag = time.Since(start.Add(time.Duration(len(ops)) * period))
	ws.resigned = resigns.Value() - before
	return ws
}

// churnFinalCheck ranks every request on the mutated system and on a
// system rebuilt from scratch over the final corpus: the two must agree
// bit for bit (IDs mapped by order), the rebuilt ranking's scores must
// match the oracle over the final corpus, and NDCG@10 is taken on it.
func churnFinalCheck(in *inputs, reqs []request, finalIDs []lake.TableID, search func(core.Query) []core.Result, t *tally) float64 {
	final := make([]*table.Table, len(finalIDs))
	dense := make(map[lake.TableID]lake.TableID, len(finalIDs))
	for i, id := range finalIDs {
		final[i] = in.tableByID(id)
		dense[id] = lake.TableID(i)
	}
	rb := buildSystem(in.g, final, true)
	o := newOracle(in.g, final)
	rankings := make([][]core.Result, len(reqs))
	forEach(len(reqs), func(i int) {
		r := reqs[i]
		got := search(r.q)
		mapped := make([]core.Result, len(got))
		for j, res := range got {
			id, ok := dense[res.Table]
			if !ok {
				id = -1 // a removed table: cannot match the rebuilt ranking
			}
			mapped[j] = core.Result{Table: id, Score: res.Score}
		}
		want := rb.SearchContext(context.Background(), r.q, topK)
		t.check(errors.Join(checkRanking(got, topK), sameRanking(mapped, want), o.query(r.q).checkScores(want)))
		rankings[i] = want
	})
	return in.meanNDCG(final, rankings, func(i int) int { return reqs[i].idx / 2 })
}

// runLiveChurn: one closed-loop reader sends a 1:1 mix of 1-tuple and
// 5-tuple searches to an unsharded LSH System while an open-loop writer
// adds and removes tables. Reads are checked for ranking properties;
// afterwards the mutated system must rank like a rebuilt one.
func runLiveChurn(in *inputs, cfg config, t *tally) (map[string]metric, error) {
	var sys *thetis.System
	setup, err := setUp(func() error {
		sys = nil
		sys = buildSystem(in.g, in.base, true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()

	reqs := in.mixed()
	ops, finalIDs := churnSchedule(in, churnWrites(cfg))
	ask := func(r request) time.Duration {
		start := time.Now()
		res := sys.SearchContext(context.Background(), r.q, topK)
		d := time.Since(start)
		t.check(checkRanking(res, topK))
		return d
	}
	warmUp(reqs, func(q core.Query) { sys.SearchContext(context.Background(), q, topK) })
	var ws writeStats
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		ws = writer(start, ops, sys.AddTable, sys.RemoveTable, t)
	}()
	lr := closedLoop(1, cfg.window, func(_ int, n int64) (int, time.Duration) {
		return 1, ask(reqs[n%int64(len(reqs))])
	})
	<-done
	ws.log()
	ndcg := churnFinalCheck(in, reqs, finalIDs, func(q core.Query) []core.Result {
		return sys.SearchContext(context.Background(), q, topK)
	}, t)
	return endToEnd(setup, heap, lr, churnTailPct, ndcg), nil
}
