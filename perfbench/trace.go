package main

// The traced run (--trace 1). It serves the same inputs as the timed run
// but assembles the serving layers itself from their public functions
// (shard.Local, core.LSEI, core.Engine, core.MergeRanked,
// core.TypeFilterState, server.Server), so it can record one span around
// each call: prefilter → score per shard leg, then merge, inside the HTTP
// envelope where there is one. Counts come from the Stats the engine
// returns, a counting wrapper on Engine.Sim and the obs counters. Nothing
// here feeds the end-to-end metrics; the traced run's own throughput,
// logged to stderr, differs from the timed run's by the tracing
// overhead.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thetis"
	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/obs"
	"thetis/internal/server"
	"thetis/internal/shard"
	"thetis/internal/table"
)

// probeWrites is how many writes (half adds, half removes) the traced
// run of a read-only workload makes after its window, so the live layer
// has a figure on every workload.
const probeWrites = 40

// spanRec is one recorded call.
type spanRec struct {
	Phase  string `json:"phase"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a request's root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus what child spans cover
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory. Every request belongs to a
// phase of the run (warm-up, window, replay, probe); metrics read the
// spans of one phase.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []spanRec
	phaseOf map[int64]string
}

// ref is an open span: its ID and the request it belongs to.
type ref struct{ id, req int64 }

func newTracer() *tracer { return &tracer{t0: time.Now(), phaseOf: make(map[int64]string)} }

// request starts a new request in phase; its spans hang under the
// returned ref.
func (tr *tracer) request(phase string) ref {
	req := tr.ids.Add(1)
	tr.mu.Lock()
	tr.phaseOf[req] = phase
	tr.mu.Unlock()
	return ref{req: req}
}

// do runs fn inside a span named name under parent.
func (tr *tracer) do(parent ref, name string, fn func(ref)) {
	id := tr.ids.Add(1)
	start := time.Since(tr.t0)
	fn(ref{id: id, req: parent.req})
	end := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans = append(tr.spans, spanRec{Phase: tr.phaseOf[parent.req], ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: int64(start), End: int64(end)})
	tr.mu.Unlock()
}

// phase returns the spans of one phase.
func (tr *tracer) phase(p string) spanSet {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out spanSet
	for _, s := range tr.spans {
		if s.Phase == p {
			out = append(out, s)
		}
	}
	return out
}

// spanSet is a selection of spans.
type spanSet []spanRec

// byName returns the durations of the spans named name.
func (ss spanSet) byName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// fillSelf sets every span's self time: its duration minus the union of
// its children's intervals.
func fillSelf(spans []spanRec) {
	kids := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		ch := kids[spans[i].ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, end := int64(0), spans[i].Start
		for _, c := range ch {
			lo, hi := max(c.Start, end), min(c.End, spans[i].End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// writeSpans writes the run's spans as JSON lines under
// .bench_build/spans/ in the working directory.
func (tr *tracer) writeSpans(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fillSelf(tr.spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("spans: %d written to %s", len(tr.spans), path)
	return nil
}

// countingSim wraps σ to count evaluations and keep a sample of the
// evaluated pairs, which nsPerEval replays untraced.
type countingSim struct {
	inner  core.Similarity
	calls  atomic.Int64
	mu     sync.Mutex
	sample [][2]kg.EntityID
}

const (
	sigmaSampleEvery = 64
	sigmaSampleCap   = 1 << 16
)

func (c *countingSim) Score(a, b kg.EntityID) float64 {
	if c.calls.Add(1)%sigmaSampleEvery == 0 {
		c.mu.Lock()
		if len(c.sample) < sigmaSampleCap {
			c.sample = append(c.sample, [2]kg.EntityID{a, b})
		}
		c.mu.Unlock()
	}
	return c.inner.Score(a, b)
}

// sigmaSink keeps the σ replay's results alive so the compiler cannot
// drop the calls.
var sigmaSink float64

// nsPerEval times the sampled pairs through the unwrapped σ, repeating
// the pass until at least 50ms have been measured.
func (c *countingSim) nsPerEval() float64 {
	if len(c.sample) == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, p := range c.sample {
			sigmaSink += c.inner.Score(p[0], p[1])
		}
		n += len(c.sample)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// layerCounts accumulates what the engine's Stats and the prefilter's
// trace report over traced queries.
type layerCounts struct {
	queries, candidates, probes, tables, scored atomic.Int64
	mappingNs, rankNs, sigmaHits, sigmaMisses   atomic.Int64
	solves                                      atomic.Int64
}

// countSnap is a reading of layerCounts (plus σ evaluations).
type countSnap struct {
	queries, candidates, probes, tables, scored int64
	mappingNs, rankNs, sigmaHits, sigmaMisses   int64
	solves, sigmaEvals                          int64
}

func (st *stack) snap() countSnap {
	c := &st.cnt
	return countSnap{
		queries: c.queries.Load(), candidates: c.candidates.Load(), probes: c.probes.Load(),
		tables: c.tables.Load(), scored: c.scored.Load(), mappingNs: c.mappingNs.Load(),
		rankNs: c.rankNs.Load(), sigmaHits: c.sigmaHits.Load(), sigmaMisses: c.sigmaMisses.Load(),
		solves: c.solves.Load(), sigmaEvals: st.sim.calls.Load(),
	}
}

func (a countSnap) minus(b countSnap) countSnap {
	return countSnap{
		queries: a.queries - b.queries, candidates: a.candidates - b.candidates, probes: a.probes - b.probes,
		tables: a.tables - b.tables, scored: a.scored - b.scored, mappingNs: a.mappingNs - b.mappingNs,
		rankNs: a.rankNs - b.rankNs, sigmaHits: a.sigmaHits - b.sigmaHits, sigmaMisses: a.sigmaMisses - b.sigmaMisses,
		solves: a.solves - b.solves, sigmaEvals: a.sigmaEvals - b.sigmaEvals,
	}
}

// legLoc locates a global table ID: its leg and leg-local ID (leg -1
// once removed).
type legLoc struct {
	leg   int
	local lake.TableID
}

// stack is the traced run's assembly of the serving layers, built the way
// System (one leg) and ShardedSystem (two legs) build theirs: one
// shard.Local per leg with an engine using global IDF weights, and with
// an index, one global frequent-type filter shared by every leg's LSEI.
type stack struct {
	tr    *tracer
	g     *kg.Graph
	tj    *core.TypeJaccard
	sim   *countingSim
	legs  []*shard.Local
	lakes []*lake.Lake
	part  lake.Partitioner // nil with one leg
	fs    *core.TypeFilterState
	cnt   layerCounts

	mu    sync.RWMutex // reads hold RLock, writes Lock, as in System
	owner []legLoc
}

func newStack(g *kg.Graph, tables []*table.Table, legs int, withIndex bool) *stack {
	st := &stack{g: g}
	for i := 0; i < legs; i++ {
		l := shard.NewLocal(i, g)
		st.legs = append(st.legs, l)
		st.lakes = append(st.lakes, l.Lake())
	}
	if legs > 1 {
		st.part = lake.NewHashPartitioner(legs)
	}
	for _, t := range tables {
		st.place(t)
	}
	st.tj = core.NewTypeJaccard(g)
	st.sim = &countingSim{inner: st.tj}
	inf := core.IDFInformativenessOver(st.lakes)
	for _, l := range st.legs {
		eng := core.NewEngine(l.Lake(), st.sim)
		eng.Inf = inf
		eng.Parallelism = max(1, nproc/legs)
		l.SetEngine(eng)
	}
	if withIndex {
		cfg := thetis.DefaultIndexConfig()
		if cfg.FrequentTypeThreshold == 0 {
			cfg.FrequentTypeThreshold = 0.5
		}
		st.fs = core.NewTypeFilterState(st.lakes, st.tj, cfg.FrequentTypeThreshold)
		for _, l := range st.legs {
			l.SetIndex(core.BuildTypeLSEIFiltered(l.Lake(), st.tj, cfg, st.fs.Filter()))
			l.SetVotes(votes)
		}
	}
	return st
}

// place routes t to its leg and returns its global ID.
func (st *stack) place(t *table.Table) lake.TableID {
	leg := 0
	if st.part != nil {
		leg = st.part.Assign(t)
	}
	global := lake.TableID(len(st.owner))
	st.owner = append(st.owner, legLoc{leg: leg, local: st.legs[leg].Add(t, global)})
	return global
}

func (st *stack) indexes() []*core.LSEI {
	var out []*core.LSEI
	for _, l := range st.legs {
		if ix := l.Index(); ix != nil {
			out = append(out, ix)
		}
	}
	return out
}

// add ingests t the way System.AddTable does: the frequent-type filter
// re-balances (re-signing what flips) before the table joins its leg's
// lake and LSEI.
func (st *stack) add(parent ref, t *table.Table) lake.TableID {
	var id lake.TableID
	st.tr.do(parent, "live.add", func(r ref) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.fs != nil {
			st.tr.do(r, "live.filter", func(ref) { st.fs.AddTable(t, st.indexes()...) })
		}
		id = st.place(t)
	})
	return id
}

// remove drops table id the way System.RemoveTable does: out of its
// leg's lake and LSEI first, then the filter re-balances.
func (st *stack) remove(parent ref, id lake.TableID) error {
	var err error
	st.tr.do(parent, "live.remove", func(r ref) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if int(id) >= len(st.owner) || st.owner[id].leg < 0 {
			err = fmt.Errorf("remove %d: %w", id, thetis.ErrNoSuchTable)
			return
		}
		loc := st.owner[id]
		t := st.legs[loc.leg].Remove(loc.local)
		if st.fs != nil {
			st.tr.do(r, "live.filter", func(ref) { st.fs.RemoveTable(t, st.indexes()...) })
		}
		st.owner[id] = legLoc{leg: -1}
	})
	return err
}

// table returns the live table with global ID id, or nil.
func (st *stack) table(id lake.TableID) *table.Table {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if int(id) >= len(st.owner) || st.owner[id].leg < 0 {
		return nil
	}
	loc := st.owner[id]
	return st.legs[loc.leg].Lake().Table(loc.local)
}

// note folds one scored leg into the counters.
func (st *stack) note(l *shard.Local, q core.Query, cands []lake.TableID, s core.Stats) {
	st.cnt.tables.Add(int64(s.Candidates))
	st.cnt.scored.Add(int64(s.Scored))
	st.cnt.mappingNs.Add(int64(s.MappingTime))
	st.cnt.sigmaHits.Add(s.SigmaHits)
	st.cnt.sigmaMisses.Add(s.SigmaMisses)
	if s.Trace != nil {
		for _, stage := range s.Trace.Stages {
			if stage.Name == "rank" {
				st.cnt.rankNs.Add(int64(stage.Wall))
			}
		}
	}
	if cands == nil {
		cands = l.Lake().LiveTableIDs()
	}
	solves := 0
	for _, id := range cands {
		if t := l.Lake().Table(id); t != nil && t.NumRows() > 0 && t.NumColumns() > 0 {
			solves += len(q)
		}
	}
	st.cnt.solves.Add(int64(solves))
}

// prefilter returns leg l's candidates for q: the LSEI's when the leg
// has one, else every live table (the full scan's candidate set).
func (st *stack) prefilter(ctx context.Context, parent ref, l *shard.Local, q core.Query) []lake.TableID {
	var cands []lake.TableID
	st.tr.do(parent, "prefilter", func(ref) {
		ix := l.Index()
		if ix == nil {
			cands = l.Lake().LiveTableIDs()
			return
		}
		pre := obs.NewTrace("prefilter")
		cands = ix.CandidatesTracedContext(ctx, q, votes, pre)
		for _, s := range pre.Stages {
			if s.Name == "probe" {
				st.cnt.probes.Add(int64(s.Items))
			}
		}
	})
	st.cnt.candidates.Add(int64(len(cands)))
	return cands
}

// search runs q through the layers: on every leg concurrently, prefilter
// then score; when the prefilter leaves no candidate on any leg, every
// leg scores its whole lake (the single-node fallback and the
// coordinator's rescatter alike); then the legs' rankings merge.
func (st *stack) search(ctx context.Context, parent ref, q core.Query, k int) []core.Result {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.cnt.queries.Add(1)
	lists := make([][]core.Result, len(st.legs))
	total := make([]int, len(st.legs))
	scatter := func(full bool) {
		var wg sync.WaitGroup
		for i, l := range st.legs {
			wg.Add(1)
			go func(i int, l *shard.Local) {
				defer wg.Done()
				st.tr.do(parent, "shard.leg", func(lr ref) {
					var cands []lake.TableID
					if !full {
						cands = st.prefilter(ctx, lr, l, q)
						total[i] = len(cands)
					}
					var res []core.Result
					var s core.Stats
					st.tr.do(lr, "score", func(ref) { res, s = l.Engine().SearchCandidatesContext(ctx, q, cands, k) })
					st.note(l, q, cands, s)
					for j := range res {
						res[j].Table = l.GlobalID(res[j].Table)
					}
					lists[i] = res
				})
			}(i, l)
		}
		wg.Wait()
	}
	scatter(false)
	if sum(total) == 0 {
		scatter(true)
	}
	var out []core.Result
	st.tr.do(parent, "merge", func(ref) { out = core.MergeRanked(lists, k) })
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// searchBatch runs a batch through the one-leg batch engine
// (core.Engine.SearchBatchContext), prefiltering each query first, then
// merges each query's ranking like search does.
func (st *stack) searchBatch(ctx context.Context, parent ref, qs []core.Query, k int) [][]core.Result {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.cnt.queries.Add(int64(len(qs)))
	l := st.legs[0]
	var res [][]core.Result
	st.tr.do(parent, "shard.leg", func(lr ref) {
		cands := make([][]lake.TableID, len(qs))
		for i, q := range qs {
			if c := st.prefilter(ctx, lr, l, q); len(c) > 0 {
				cands[i] = c
			}
		}
		var stats []core.Stats
		st.tr.do(lr, "score", func(ref) { res, stats = l.Engine().SearchBatchContext(ctx, qs, cands, k) })
		for i := range qs {
			st.note(l, qs[i], cands[i], stats[i])
		}
	})
	out := make([][]core.Result, len(qs))
	for i := range qs {
		st.tr.do(parent, "merge", func(ref) { out[i] = core.MergeRanked([][]core.Result{res[i]}, k) })
	}
	return out
}

// tracedBackend serves HTTP through the stack: the server's search and
// batch calls become "backend" spans under the "http.serve" span of the
// request. The embedded facade answers the calls the benchmark does not
// trace (query parsing, stats).
type tracedBackend struct {
	server.Backend
	st *stack
}

// refKey carries the span a request's server-side spans hang under.
type refKey struct{}

func refFrom(ctx context.Context) ref {
	r, _ := ctx.Value(refKey{}).(ref)
	return r
}

func (b *tracedBackend) SearchStatsContext(ctx context.Context, q thetis.Query, k int) ([]thetis.Result, thetis.SearchStats) {
	var res []core.Result
	b.st.tr.do(refFrom(ctx), "backend", func(r ref) { res = b.st.search(ctx, r, q, k) })
	return res, thetis.SearchStats{}
}

func (b *tracedBackend) SearchBatchContext(ctx context.Context, qs []thetis.Query, k int) ([][]thetis.Result, []thetis.SearchStats) {
	var res [][]core.Result
	b.st.tr.do(refFrom(ctx), "backend", func(r ref) { res = b.st.searchBatch(ctx, r, qs, k) })
	return res, make([]thetis.SearchStats, len(qs))
}

func (b *tracedBackend) Table(id thetis.TableID) *thetis.Table { return b.st.table(id) }

// spanHeader carries the client's request span to the server.
const spanHeader = "X-Bench-Span"

func encodeRef(r ref) string { return strconv.FormatInt(r.id, 10) + "/" + strconv.FormatInt(r.req, 10) }

func decodeRef(s string) ref {
	a, b, _ := strings.Cut(s, "/")
	id, _ := strconv.ParseInt(a, 10, 64)
	req, _ := strconv.ParseInt(b, 10, 64)
	return ref{id: id, req: req}
}
