package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"thetis"
	"thetis/internal/core"
	"thetis/internal/lake"
	"thetis/internal/server"
	"thetis/internal/table"
)

// Serving shape shared by every workload: type-Jaccard σ, IDF
// informativeness and MAX aggregation (the engine defaults), the default
// LSH(30,10) index where a workload has one, and votes = 3.
const (
	votes = 3
	// maxInFlight is the HTTP admission limit, above the client count so
	// nothing is shed.
	maxInFlight = 8
	// nclients is the number of closed-loop HTTP clients (and connections).
	nclients = 2
)

// nproc bounds client goroutines, engine workers and connections.
var nproc = runtime.NumCPU()

// buildSystem ingests tables into an unsharded System with type σ, and
// builds the LSH index when withIndex is set.
func buildSystem(g *thetis.Graph, tables []*table.Table, withIndex bool) *thetis.System {
	sys := thetis.New(g)
	for _, t := range tables {
		sys.AddTable(t)
	}
	sys.UseTypeSimilarity()
	sys.SetParallelism(nproc)
	if withIndex {
		sys.BuildIndex(thetis.DefaultIndexConfig())
		sys.SetVotes(votes)
	}
	return sys
}

// buildSharded ingests tables into a 2-shard hash-partitioned system with
// type σ and the LSH index. Each shard gets nproc/2 engine workers, so a
// search uses nproc workers across both legs.
func buildSharded(g *thetis.Graph, tables []*table.Table) *thetis.ShardedSystem {
	ss := thetis.NewShardedSystem(g, thetis.NewHashPartitioner(2))
	for _, t := range tables {
		ss.AddTable(t)
	}
	ss.UseTypeSimilarity()
	ss.SetParallelism(max(1, nproc/2))
	ss.BuildIndex(thetis.DefaultIndexConfig())
	ss.SetVotes(votes)
	return ss
}

// loopback is an HTTP server on 127.0.0.1 serving one handler.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return lb, nil
}

// close stops the server and waits for its serve loop to end.
func (lb *loopback) close() {
	_ = lb.srv.Close() // only the listener's close error; nothing to recover
	<-lb.done
}

// client is one closed-loop HTTP client with a single connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url: url,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpReply is one decoded search response and what it cost.
type httpReply struct {
	results []core.Result
	bytes   int
	elapsed time.Duration // request sent to body read
}

// post sends one search request (path "/search" or "/search/batch") and
// reads the whole body.
// span, when not empty, travels in the spanHeader so a traced server
// can hang its spans under the client's.
func (c *client) post(ctx context.Context, path, span string, body any) ([]byte, time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+path, bytes.NewReader(buf))
	if err != nil {
		return nil, 0, err
	}
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, elapsed, nil
}

func toResults(rows []server.SearchResult) []core.Result {
	out := make([]core.Result, len(rows))
	for i, r := range rows {
		out[i] = core.Result{Table: lake.TableID(r.Table), Score: r.Score}
	}
	return out
}

var errTruncated = errors.New("search truncated")

// search runs one POST /search.
func (c *client) search(ctx context.Context, text, span string) (httpReply, error) {
	data, elapsed, err := c.post(ctx, "/search", span, server.SearchRequest{Query: text, K: topK})
	if err != nil {
		return httpReply{}, err
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return httpReply{}, fmt.Errorf("decode /search: %w", err)
	}
	if sr.Truncated {
		return httpReply{}, errTruncated
	}
	return httpReply{results: toResults(sr.Results), bytes: len(data), elapsed: elapsed}, nil
}

// searchBatch runs one POST /search/batch.
func (c *client) searchBatch(ctx context.Context, texts []string, span string) ([][]core.Result, httpReply, error) {
	data, elapsed, err := c.post(ctx, "/search/batch", span, server.BatchSearchRequest{Queries: texts, K: topK})
	if err != nil {
		return nil, httpReply{}, err
	}
	var br server.BatchSearchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, httpReply{}, fmt.Errorf("decode /search/batch: %w", err)
	}
	out := make([][]core.Result, len(br.Results))
	for i, r := range br.Results {
		if r.Truncated {
			return nil, httpReply{}, errTruncated
		}
		out[i] = toResults(r.Results)
	}
	return out, httpReply{bytes: len(data), elapsed: elapsed}, nil
}

// loadResult is what one closed-loop window measured.
type loadResult struct {
	lat     []float64 // ms per request
	queries int64
	elapsed time.Duration
	// slices counts the queries completed in each second of the window.
	slices []int64
	cpu    float64 // process CPU seconds over the window
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// closedLoop runs clients goroutines for window; each issues its next
// request as soon as the previous one returns. do gets the client number
// and a run-wide request counter and returns how many queries the request
// answered and its latency.
func closedLoop(clients int, window time.Duration, do func(c int, n int64) (int, time.Duration)) loadResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  loadResult
		wg   sync.WaitGroup
	)
	c0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(window)
	slices := make([]atomic.Int64, int(window/time.Second)+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			var qs int64
			for time.Now().Before(deadline) {
				nq, d := do(c, next.Add(1)-1)
				lat = append(lat, ms(d))
				qs += int64(nq)
				if i := int(time.Since(start) / time.Second); i < len(slices) {
					slices[i].Add(int64(nq))
				}
			}
			mu.Lock()
			out.lat = append(out.lat, lat...)
			out.queries += qs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.cpu = cpuSeconds() - c0
	for i := 0; i < int(window/time.Second); i++ {
		out.slices = append(out.slices, slices[i].Load())
	}
	return out
}
