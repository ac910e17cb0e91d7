package main

import (
	"strings"

	"thetis/internal/core"
	"thetis/internal/datagen"
	"thetis/internal/kg"
	"thetis/internal/lake"
	"thetis/internal/metrics"
	"thetis/internal/table"
)

// Input make-up shared by every workload. The README's "Inputs" section
// restates these numbers; change both together.
const (
	baseTables = 4000 // WT2015-profile tables in the served corpus
	numQueries = 512  // distinct 5-tuple queries; their 1-tuple prefixes make 512 more
	queryWidth = 3    // entities per tuple: member, group, place
	topK       = 10   // k of every search
)

// inputs is everything the benchmark generates. The lake — KG, base
// corpus and reserve — is datagen's default: DefaultKGConfig and the
// WT2015 profile with their own fixed seeds. The run's seed draws the
// query set. Letting the seed redraw the lake would make runs differ
// mostly in which types sit above the frequent-type threshold (0.5),
// which moves LSH candidate counts, and so throughput, by up to 2x
// between lakes. The program under test only ever receives the tables
// and queries; the KG's domain structure and the tables' topic categories
// stay on the benchmark's side (ground truth).
type inputs struct {
	seed int64
	kg   *datagen.KG
	g    *kg.Graph
	// base is the served corpus in ingestion order, so base[i] gets table
	// ID i. reserve holds further tables of the same generator run that
	// live-churn adds while it serves.
	base, reserve []*table.Table
	// bench are the 5-tuple queries with their topic information; q5 and
	// q1 are the 5-tuple queries and their 1-tuple prefixes, text5 and
	// text1 the same queries in the daemon's text syntax.
	bench        []datagen.BenchmarkQuery
	q5, q1       []core.Query
	text5, text1 []string
}

// makeInputs generates the lake with reserve tables beyond the base
// corpus, and the query set from seed. The same seed always yields the
// same inputs; the first baseTables tables do not depend on the reserve
// size.
func makeInputs(seed int64, reserve int) *inputs {
	k := datagen.GenerateKG(datagen.DefaultKGConfig())
	gen := datagen.GenerateCorpus(k, datagen.ProfileWT2015(baseTables+reserve))
	all := append([]*table.Table(nil), gen.Tables()...)
	in := &inputs{
		seed:    seed,
		kg:      k,
		g:       k.Graph,
		base:    all[:baseTables],
		reserve: all[baseTables:],
	}
	in.bench = datagen.GenerateQueries(k, datagen.QueryConfig{
		Count: numQueries, TuplesPerQuery: 5, Width: queryWidth, Seed: seed,
	})
	for _, bq := range in.bench {
		q1 := bq.Truncate(1).Query
		in.q5 = append(in.q5, bq.Query)
		in.q1 = append(in.q1, q1)
		in.text5 = append(in.text5, queryText(k.Graph, bq.Query))
		in.text1 = append(in.text1, queryText(k.Graph, q1))
	}
	return in
}

// queryText renders q in the daemon's syntax: entity URIs separated by
// "|", tuples by ";".
func queryText(g *kg.Graph, q core.Query) string {
	tuples := make([]string, len(q))
	for i, t := range q {
		uris := make([]string, len(t))
		for j, e := range t {
			uris[j] = g.URI(e)
		}
		tuples[i] = strings.Join(uris, " | ")
	}
	return strings.Join(tuples, ";")
}

// request is one search of the mixed workloads.
type request struct {
	q    core.Query
	text string
	// idx identifies the request's query: 2i for the 1-tuple prefix of
	// query i, 2i+1 for its 5-tuple form.
	idx int
}

// mixed is the request list of the mixed workloads: each query's 1-tuple
// prefix followed by its 5-tuple form, so 1- and 5-tuple requests
// alternate one to one.
func (in *inputs) mixed() []request {
	out := make([]request, 0, 2*len(in.q5))
	for i := range in.q5 {
		out = append(out,
			request{q: in.q1[i], text: in.text1[i], idx: 2 * i},
			request{q: in.q5[i], text: in.text5[i], idx: 2*i + 1})
	}
	return out
}

// ndcgQueries is how many of the set's queries ndcg10 averages over:
// grading every table against a query is the slow part of a run.
const ndcgQueries = 256

// meanNDCG grades tables (in table-ID order, without gaps) against the
// topics of the first ndcgQueries queries and returns the mean NDCG@10 of
// the rankings of those queries; queryOf(i) is ranking i's query.
func (in *inputs) meanNDCG(tables []*table.Table, rankings [][]core.Result, queryOf func(i int) int) float64 {
	l := lake.New(in.g)
	for _, t := range tables {
		l.Add(t)
	}
	gt := make([]datagen.GroundTruth, ndcgQueries)
	forEach(ndcgQueries, func(i int) { gt[i] = datagen.BuildGroundTruth(l, in.bench[i]) })
	sum, n := 0.0, 0
	for i, r := range rankings {
		if q := queryOf(i); q < ndcgQueries {
			sum += metrics.NDCG(core.RankedTables(r), gt[q].Grades, topK)
			n++
		}
	}
	return sum / float64(n)
}
