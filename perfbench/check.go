package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"thetis/internal/core"
)

// tally counts a run's operations. An operation fails when the program
// returns an error or a wrong answer; a wrong answer also marks the run
// incorrect, which makes the benchmark exit non-zero.
type tally struct {
	attempted, failed, wrong atomic.Int64
	mu                       sync.Mutex
	logged                   int
}

// op records one operation: err == nil is a success, a non-nil err a
// failure; wrong says the failure is an incorrect output rather than an
// error the program reported.
func (t *tally) op(err error, wrong bool) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	if wrong {
		t.wrong.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logged < 10 {
		t.logged++
		fmt.Fprintf(os.Stderr, "FAILED: %v\n", err)
	}
}

// check records one correctness check.
func (t *tally) check(err error) { t.op(err, true) }

// checkRanking verifies the properties every ranking must have: at most k
// rows, only positive scores, ordered by score descending and table ID
// ascending.
func checkRanking(res []core.Result, k int) error {
	if len(res) > k {
		return fmt.Errorf("ranking has %d rows, k = %d", len(res), k)
	}
	for i, r := range res {
		if !(r.Score > 0) {
			return fmt.Errorf("rank %d: table %d has score %v", i, r.Table, r.Score)
		}
		if i == 0 {
			continue
		}
		p := res[i-1]
		if p.Score < r.Score || (p.Score == r.Score && p.Table >= r.Table) {
			return fmt.Errorf("ranks %d-%d out of order: (%d, %.17g) before (%d, %.17g)", i-1, i, p.Table, p.Score, r.Table, r.Score)
		}
	}
	return nil
}

// sameRanking verifies that got equals want bit for bit (IDs and scores).
func sameRanking(got, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: got (%d, %.17g), want (%d, %.17g)", i, got[i].Table, got[i].Score, want[i].Table, want[i].Score)
		}
	}
	return nil
}
