package main

import (
	"fmt"
	"math"
	"sort"

	"thetis/internal/core"
	"thetis/internal/kg"
	"thetis/internal/table"
)

// oracle is an independent, scalar reimplementation of SemRel(Q, T)
// (Algorithm 1 with type-Jaccard σ, IDF informativeness and MAX row
// aggregation). It shares no scoring code with internal/core: it walks
// type closures itself, counts tables per entity itself, and assigns
// query entities to columns by enumerating every choice instead of
// solving with the Hungarian method. It is slow on purpose and only
// checks the program's outputs, outside every timed window.
type oracle struct {
	g      *kg.Graph
	tables []*table.Table // by table ID; nil marks a removed table
	n      int            // live tables
	df     map[kg.EntityID]int
	types  [][]kg.TypeID // expanded type set per entity
}

// newOracle indexes tables (by table ID, nil for removed ones).
func newOracle(g *kg.Graph, tables []*table.Table) *oracle {
	o := &oracle{g: g, tables: tables, df: make(map[kg.EntityID]int), types: make([][]kg.TypeID, g.NumEntities())}
	for e := range o.types {
		o.types[e] = o.closure(kg.EntityID(e))
	}
	for _, t := range tables {
		if t == nil {
			continue
		}
		o.n++
		seen := make(map[kg.EntityID]bool)
		for _, row := range t.Rows {
			for _, c := range row {
				if e, ok := c.EntityID(); ok && !seen[e] {
					seen[e] = true
					o.df[e]++
				}
			}
		}
	}
	return o
}

// closure returns e's direct types closed under the supertype relation,
// sorted and deduplicated.
func (o *oracle) closure(e kg.EntityID) []kg.TypeID {
	seen := make(map[kg.TypeID]bool)
	stack := append([]kg.TypeID(nil), o.g.Types(e)...)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[t] {
			continue
		}
		seen[t] = true
		stack = append(stack, o.g.SuperTypes(t)...)
	}
	ts := make([]kg.TypeID, 0, len(seen))
	for t := range seen {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// typeSet returns e's expanded type set (empty for an entity the graph
// did not have when the oracle was built).
func (o *oracle) typeSet(e kg.EntityID) []kg.TypeID {
	if int(e) >= len(o.types) {
		return nil
	}
	return o.types[e]
}

// sigma is Equation 4: 1 for the same entity, else the Jaccard of the
// expanded type sets capped at 0.95 (0 when either set is empty).
func (o *oracle) sigma(a, b kg.EntityID) float64 {
	if a == b {
		return 1
	}
	ta, tb := o.typeSet(a), o.typeSet(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(ta) && j < len(tb); {
		switch {
		case ta[i] == tb[j]:
			inter++
			i++
			j++
		case ta[i] < tb[j]:
			i++
		default:
			j++
		}
	}
	jac := float64(inter) / float64(len(ta)+len(tb)-inter)
	return math.Min(jac, 0.95)
}

// idf is the informativeness weight of §5.2: log(1 + N/df) / log(1 + N),
// and 1 for an entity no table mentions.
func (o *oracle) idf(e kg.EntityID) float64 {
	df := o.df[e]
	if o.n == 0 || df == 0 {
		return 1
	}
	n := float64(o.n)
	return math.Log(1+n/float64(df)) / math.Log(1+n)
}

// span is an oracle score. Several column assignments can reach the same
// best total yet give different scores (two query entities with equal
// score-matrix rows but different weights, say); the Hungarian method
// may return any of them, so the oracle keeps the lowest and highest
// score over all best assignments. lo == hi whenever the choice does not
// matter.
type span struct{ lo, hi float64 }

// oracleQuery holds one query's distinct entities, their weights and
// their memoized σ against every graph entity (-1 = not yet computed).
type oracleQuery struct {
	o     *oracle
	q     core.Query
	ents  []kg.EntityID
	slot  map[kg.EntityID]int
	w     []float64
	sigma [][]float64
}

func (o *oracle) query(q core.Query) *oracleQuery {
	oq := &oracleQuery{o: o, q: q, slot: make(map[kg.EntityID]int)}
	for _, tu := range q {
		for _, e := range tu {
			if _, ok := oq.slot[e]; ok {
				continue
			}
			oq.slot[e] = len(oq.ents)
			oq.ents = append(oq.ents, e)
			oq.w = append(oq.w, o.idf(e))
			row := make([]float64, len(o.types))
			for i := range row {
				row[i] = -1
			}
			oq.sigma = append(oq.sigma, row)
		}
	}
	return oq
}

// sim is σ(ents[d], b), memoized.
func (oq *oracleQuery) sim(d int, b kg.EntityID) float64 {
	if int(b) >= len(oq.sigma[d]) {
		return oq.o.sigma(oq.ents[d], b)
	}
	v := oq.sigma[d][b]
	if v < 0 {
		v = oq.o.sigma(oq.ents[d], b)
		oq.sigma[d][b] = v
	}
	return v
}

// column is one table column's linked entities with multiplicities, in
// first-seen order.
type column struct {
	ents   []kg.EntityID
	counts []int
}

func columnsOf(t *table.Table) []column {
	cols := make([]column, t.NumColumns())
	for j := range cols {
		pos := make(map[kg.EntityID]int)
		for _, row := range t.Rows {
			e, ok := row[j].EntityID()
			if !ok {
				continue
			}
			if i, seen := pos[e]; seen {
				cols[j].counts[i]++
				continue
			}
			pos[e] = len(cols[j].ents)
			cols[j].ents = append(cols[j].ents, e)
			cols[j].counts = append(cols[j].counts, 1)
		}
	}
	return cols
}

// tieTol is how close two assignment totals must be to count as equally
// good: the Hungarian solver's float arithmetic may land either side of
// an exact tie.
const tieTol = 1e-9

// score computes SemRel(Q, T) for table id per Equations 2-3.
func (oq *oracleQuery) score(id int) span {
	t := oq.o.tables[id]
	if t == nil || t.NumRows() == 0 || t.NumColumns() == 0 {
		return span{}
	}
	cols := columnsOf(t)
	// sum[d][j]: σ of distinct query entity d summed over column j's
	// cells (the score matrix row); best[d][j]: its MAX aggregation.
	sum := make([][]float64, len(oq.ents))
	best := make([][]float64, len(oq.ents))
	for d := range oq.ents {
		sum[d] = make([]float64, len(cols))
		best[d] = make([]float64, len(cols))
		for j, c := range cols {
			for x, ce := range c.ents {
				v := oq.sim(d, ce)
				sum[d][j] += float64(c.counts[x]) * v
				best[d][j] = math.Max(best[d][j], v)
			}
		}
	}
	var total span
	matched := false
	for _, tu := range oq.q {
		rows := make([]int, len(tu))
		for i, e := range tu {
			rows[i] = oq.slot[e]
		}
		tot, s := oq.assign(rows, sum, best)
		if tot <= 0 {
			continue
		}
		matched = true
		total.lo += s.lo
		total.hi += s.hi
	}
	if !matched {
		return span{}
	}
	n := float64(len(oq.q))
	return span{total.lo / n, total.hi / n}
}

// assign enumerates every injective assignment of the tuple's entities
// (rows, as distinct-entity slots) to columns, an entity also being free
// to stay unassigned, and returns the best total of the score matrix
// together with the range of tuple scores the best assignments give.
func (oq *oracleQuery) assign(rows []int, S, best [][]float64) (float64, span) {
	m, n := len(rows), len(S[0])
	choice := make([]int, m)
	used := make([]bool, n)
	bestTot := -1.0
	var out span
	var rec func(i int, tot float64)
	rec = func(i int, tot float64) {
		if i == m {
			d := 0.0
			for r, j := range choice {
				x := 0.0
				if j >= 0 {
					x = best[rows[r]][j]
				}
				d += oq.w[rows[r]] * (1 - x) * (1 - x)
			}
			s := 1 / (math.Sqrt(d) + 1)
			switch {
			case tot > bestTot+tieTol:
				bestTot, out = tot, span{s, s}
			case tot >= bestTot-tieTol:
				out.lo, out.hi = math.Min(out.lo, s), math.Max(out.hi, s)
				bestTot = math.Max(bestTot, tot)
			}
			return
		}
		choice[i] = -1
		rec(i+1, tot)
		for j := 0; j < n; j++ {
			if used[j] || S[rows[i]][j] == 0 {
				continue
			}
			used[j] = true
			choice[i] = j
			rec(i+1, tot+S[rows[i]][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return bestTot, out
}

// ranking is the oracle's score for every table with a positive score.
func (oq *oracleQuery) ranking() map[int]span {
	out := make(map[int]span)
	for id := range oq.o.tables {
		if s := oq.score(id); s.hi > 0 {
			out[id] = s
		}
	}
	return out
}

// scoreTol is the largest difference between the program's score and the
// oracle's that still counts as equal.
const scoreTol = 1e-9

func (s span) admits(v float64) bool { return v >= s.lo-scoreTol && v <= s.hi+scoreTol }

// checkScores verifies that every returned table scores what the oracle
// says (the check on prefiltered workloads, whose candidate set the
// oracle does not model).
func (oq *oracleQuery) checkScores(res []core.Result) error {
	for _, r := range res {
		if s := oq.score(int(r.Table)); !s.admits(r.Score) {
			return fmt.Errorf("table %d scores %.17g, oracle [%.17g, %.17g]", r.Table, r.Score, s.lo, s.hi)
		}
	}
	return nil
}

// checkTopK verifies that res is a correct top-k of the full ranking:
// every returned score matches the oracle, no table left out beats the
// last one returned, and among tables the oracle ties with the last one
// (within scoreTol) the lower table IDs were returned.
func checkTopK(res []core.Result, full map[int]span, k int) error {
	in := make(map[int]bool, len(res))
	for _, r := range res {
		s, ok := full[int(r.Table)]
		if !ok || !s.admits(r.Score) {
			return fmt.Errorf("table %d scores %.17g, oracle %v", r.Table, r.Score, s)
		}
		in[int(r.Table)] = true
	}
	if len(res) < k {
		// Everything with a positive score must be there.
		for id, s := range full {
			if !in[id] && s.lo > scoreTol {
				return fmt.Errorf("table %d (oracle %v) missing from a short ranking of %d", id, s, len(res))
			}
		}
		return nil
	}
	last := res[len(res)-1]
	for id, s := range full {
		if in[id] {
			continue
		}
		if s.lo > last.Score+scoreTol {
			return fmt.Errorf("table %d (oracle %v) outranks returned table %d (%.17g)", id, s, last.Table, last.Score)
		}
		if s.lo == s.hi && math.Abs(s.lo-last.Score) <= scoreTol && id < int(last.Table) {
			return fmt.Errorf("table %d ties returned table %d at %.17g but has the lower ID", id, last.Table, last.Score)
		}
	}
	return nil
}
