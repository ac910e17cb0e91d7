package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads printed here match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// repeatRuns runs the benchmark n times with seeds 1..n as child
// processes of this binary and prints, per metric, the median, the
// quartiles and the quartile spread as a share of the median, next to a
// third of the metric's bound in BENCHMARK.json (the steadiness target).
func repeatRuns(name string, n, seconds, trace int) int {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "thetisbench: BENCHMARK.json: %v\n", err)
			return 2
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShares []float64
	correct := true
	for seed := 1; seed <= n; seed++ {
		start := time.Now()
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		// A child must not outlive this process if it is interrupted.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(os.Stderr, "thetisbench: seed %d: %v (no result line: %v)\n", seed, err, jerr)
			return 2
		}
		if err != nil || !res.Correct {
			correct = false
		}
		failedShares = append(failedShares, float64(res.Failed)/float64(res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Printf("seed %d: %d attempted, %d failed, correct %v (%.1fs)\n", seed, res.Attempted, res.Failed, res.Correct, time.Since(start).Seconds())
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-34s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound/3")
	for _, k := range keys {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		spread := math.Abs(q3-q1) / med
		b, ok := bounds[k]
		mark := ""
		if ok && spread > b/3 {
			mark = "  WIDE"
		}
		fmt.Printf("%-34s %12.5g %12.5g %12.5g %8.4f %8.4f%s  %s\n", k, med, q1, q3, spread, b/3, mark, units[k])
	}
	fmt.Printf("failed share per run: %v\n", failedShares)
	if !correct {
		return 1
	}
	return 0
}
