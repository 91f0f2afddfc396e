package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"scorpio/internal/system"
)

// steadyMain runs one workload in --runs separate processes and prints each
// metric's median, quartiles, extremes and spread (the quartile distance as
// a share of the median): the evidence behind each end-to-end bound. Every
// process runs the same seed, so the spread is the host's alone; with
// --sweep run i uses seed+i, and the spread adds what the seed moves. With
// --trace it adds one traced run and reports the tracing overhead against
// the untraced median.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "chip36", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (of the first run, with --sweep)")
	sweep := fs.Bool("sweep", false, "give run i seed+i instead of repeating the seed")
	seconds := fs.Int("seconds", 25, "measurement budget of each run, in seconds")
	traced := fs.Bool("trace", false, "add one traced run and report the tracing overhead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := workloadByName(*name); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	run := func(seed uint64, trace int) (result, error) {
		cmd := exec.Command(exe, "--workload", *name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(trace))
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return result{}, fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !r.Correct {
			return r, fmt.Errorf("seed %d: outputs incorrect", seed)
		}
		return r, nil
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		s := *seed
		if *sweep {
			s += uint64(i)
		}
		r, err := run(s, 0)
		if err != nil {
			return err
		}
		fmt.Printf("run %d, seed %d: attempted %d failed %d", i+1, s, r.Attempted, r.Failed)
		for _, k := range []string{"run_s", "setup_s"} {
			fmt.Printf(" %s %.4g", k, r.Metrics[k].Value)
		}
		fmt.Println()
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	seeds := fmt.Sprintf("seed %d", *seed)
	if *sweep {
		seeds = fmt.Sprintf("seeds %d-%d", *seed, *seed+uint64(*runs)-1)
	}
	fmt.Printf("\n%s, %d runs, %s, %ds each\n\n", *name, *runs, seeds, *seconds)
	fmt.Println("| metric | unit | median | q1 | q3 | min | max | spread |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.4g | %.4g | %.1f%% |\n",
			k, units[k], med, q1, q3, lo, hi, 100*(q3-q1)/med)
	}
	if *traced {
		r, err := run(*seed, 1)
		if err != nil {
			return err
		}
		t := r.Metrics["traced_run_s"].Value
		u := median(values["run_s"])
		fmt.Printf("\ntraced_run_s %.4g s against run_s median %.4g s: overhead %.1f%%\n", t, u, 100*(t/u-1))
	}
	return nil
}

// Markers around the generated digest table in README.md.
const (
	digestsBegin = "<!-- digests:begin -->"
	digestsEnd   = "<!-- digests:end -->"
)

// digestsMain runs every workload's points once per seed, checks them, and
// prints the simulated-statistics digests as a Markdown table. --write
// replaces the table between the digest markers of the named file.
func digestsMain(args []string) error {
	fs := flag.NewFlagSet("digests", flag.ContinueOnError)
	seedList := fs.String("seeds", "1", "comma-separated seeds")
	write := fs.String("write", "", "file whose digest table to replace (README.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var seeds []uint64
	for _, s := range strings.Split(*seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("--seeds: %w", err)
		}
		seeds = append(seeds, v)
	}
	var table strings.Builder
	table.WriteString("| workload | seed | points | digest |\n|---|---|---|---|\n")
	for _, w := range workloads {
		for _, seed := range seeds {
			pts := w.points(seed)
			runtime.GOMAXPROCS(procs(pts))
			res := make([]system.Results, len(pts))
			ds := make([]string, len(pts))
			for i, p := range pts {
				o, ok := runPoint(p)
				if !ok {
					return fmt.Errorf("%s seed %d: point failed", p.label, seed)
				}
				if err := checkPoint(p, o.m, o.res); err != nil {
					return err
				}
				res[i], ds[i] = o.res, digest(o.res)
				fmt.Printf("digest %s seed %d %s\n", p.label, seed, ds[i])
			}
			if w.check != nil {
				if err := w.check(pts, res); err != nil {
					return fmt.Errorf("seed %d: %w", seed, err)
				}
			}
			fmt.Fprintf(&table, "| %s | %d | %d | `%s` |\n", w.name, seed, len(pts), combine(ds))
		}
	}
	fmt.Print("\n" + table.String())
	if *write == "" {
		return nil
	}
	doc, err := os.ReadFile(*write)
	if err != nil {
		return err
	}
	b, e := bytes.Index(doc, []byte(digestsBegin)), bytes.Index(doc, []byte(digestsEnd))
	if b < 0 || e < b {
		return fmt.Errorf("%s: no %s ... %s section", *write, digestsBegin, digestsEnd)
	}
	out := append([]byte(nil), doc[:b+len(digestsBegin)]...)
	out = append(out, "\n"+table.String()...)
	out = append(out, doc[e:]...)
	return os.WriteFile(*write, out, 0o644)
}
