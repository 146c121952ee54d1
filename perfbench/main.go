// Command perfbench is the repository's seeded end-to-end and per-layer
// benchmark. It runs one workload (fig11_paper, chaos_audited or
// stack_gray) for a wall-time budget, checks every simulated output, and
// prints the metrics as one JSON object on its last line:
//
//	perfbench --workload fig11_paper --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the traced pass and reports the per-layer metrics instead. All times
// are host CPU times scaled by a reference kernel (measure, reference.go);
// simulated statistics are checked and digested, never reported as
// performance. README.md lists every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// main runs the benchmark on one P. The program under test is single-
// threaded; a second P would only run the GC's idle mark workers, whose CPU
// time depends on how idle the other core is and would be counted into the
// ops' CPU time.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds the measured loop runs")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	spans := fs.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(*name, *seed, *seconds, paperSizes, *spans, stdout)
	} else {
		res, err = endToEnd(*name, *seed, *seconds, paperSizes, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
