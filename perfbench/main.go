// Command perfbench is the simulator's benchmark. It builds machines from a
// seed-generated configuration through internal/system's constructors, times
// construction and Run from outside the program, checks every result, and
// prints one JSON object of metrics as its last line of output.
//
//	perfbench --workload chip36 --seed 1 --seconds 20 --trace 0
//	perfbench steady --workload chip36 --runs 10
//	perfbench digests --seeds 1,7 --write README.md
//
// --trace 0 prints the end-to-end metrics of untraced, repeated timed
// phases; --trace 1 runs the workload again under a CPU profile and prints
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "steady":
		err = steadyMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "digests":
		err = digestsMain(os.Args[2:])
	default:
		err = benchMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errIncorrect marks a run whose outputs failed a check; its result line is
// still printed, with correct set to false.
var errIncorrect = errors.New("output check failed")

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "chip36", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 25, "measurement budget of the run, in seconds")
	traced := fs.Int("trace", 0, "1 = profiled run reporting per-layer metrics, 0 = timed run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	run := timedRun
	if *traced == 1 {
		run = tracedRun
	}
	res, err := run(w, *seed, *seconds)
	if err != nil && !errors.Is(err, errIncorrect) {
		return err
	}
	res.Correct = err == nil
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return err
}

// defaultSeed is the seed the README's reference figures use.
const defaultSeed = 1

// median returns the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the steadiness
// figures in README.md are stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
