// Command ruidperf is the repository's end-to-end benchmark. It serves
// generated XMark catalogs through server.New with ruidd's default
// configuration over loopback HTTP, drives one named workload from a seed
// with at most nproc client connections, checks every answer against the
// pointer-navigator reference evaluator, and prints its metrics as one JSON
// line on standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload query_large|query_small|write_mix \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// variant of the same workload and reports the per-layer ledger. Progress
// and per-phase request counts go to standard error. The metric
// definitions and the layer predictions are in perfbench/README.md and
// perfbench/layers.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: query_large, query_small or write_mix")
	seed := flag.Int64("seed", 1, "seed for documents, query order and write targets")
	seconds := flag.Int("seconds", 10, "seconds of measured load per run")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be ≥ 1 and --trace 0 or 1"))
	}
	w, err := newWorkload(*name, *seed, *seconds)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	tmp, _ = filepath.Abs(tmp)
	logf("workload %s seed %d seconds %d trace %d GOMAXPROCS %d", w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var res *result
	if *trace == 1 {
		res, err = runTraced(w, tmp)
	} else {
		res, err = runE2E(w, tmp)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ruidperf: "+format+"\n", args...)
}

func fail(err error) {
	logf("%v", err)
	os.Exit(1)
}
