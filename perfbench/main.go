// Command thetisbench is the Thetis serving benchmark. It generates a
// semantic data lake and a query set from a seed with internal/datagen,
// serves them in one of three workload shapes, checks every answer
// against an independent SemRel oracle and the system's equivalence
// contracts, and prints its metrics as one JSON line on stdout. See
// README.md in this directory for the workloads, metrics and reference
// figures.
//
// Usage (from the repository root, via run.sh which builds it):
//
//	thetisbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	thetisbench --repeat <n> --workload <name> --seconds <s> [--trace 1]
//
// With --trace 0 it reports the end-to-end metrics of a timed run; with
// --trace 1 it makes a separate traced run that reports the per-layer
// metrics and writes its spans under .bench_build/spans/. --repeat runs
// the benchmark n times with seeds 1..n and prints each metric's median
// and quartile spread against its bound in BENCHMARK.json. It exits 1
// when a correctness check failed and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's command line.
type config struct {
	name   string
	seed   int64
	window time.Duration
}

// workload is one traffic shape. run makes a timed run and returns its
// end-to-end metrics; traced makes a traced run and returns per-layer
// metrics.
type workload struct {
	name   string
	run    func(in *inputs, cfg config, t *tally) (map[string]metric, error)
	traced func(in *inputs, cfg config, t *tally) (map[string]metric, error)
	// reserve is how many tables beyond the base corpus the workload needs.
	reserve func(cfg config) int
}

var workloads = []workload{httpShardedLSH, scanBatch, liveChurn}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: http-sharded-lsh, scan-batch or live-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the benchmark this many times (seeds 1..n) and print medians and spreads")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: thetisbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(w.name, *repeat, *seconds, *trace)
	}
	cfg := config{name: w.name, seed: *seed, window: time.Duration(*seconds) * time.Second}
	logf("thetisbench %s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d",
		w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), nproc)

	start := time.Now()
	in := makeInputs(*seed, w.reserve(cfg))
	logf("inputs: %d base + %d reserve tables, %d queries (%.2fs)", len(in.base), len(in.reserve), len(in.q5), time.Since(start).Seconds())

	var t tally
	fn := w.run
	if *trace == 1 {
		fn = w.traced
	}
	ms, err := fn(in, cfg, &t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thetisbench: %v\n", err)
		return 2
	}
	res := result{
		Correct:   t.wrong.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   ms,
	}
	for _, k := range sortedKeys(ms) {
		logf("  %-36s %14.6g %s", k, ms[k].Value, ms[k].Unit)
	}
	logf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thetisbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
