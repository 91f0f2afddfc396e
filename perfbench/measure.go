package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"scorpio/internal/obs/perfmon"
	"scorpio/internal/system"
)

const (
	// minReps is the fewest timed repetitions a run makes, however long
	// they take; the median of fewer would not be steady.
	minReps = 3
	// setupRounds is how many build-only rounds a run makes before each
	// repetition, so that build samples spread over the whole run as the
	// repetitions do. A build takes milliseconds.
	setupRounds = 8
)

// outcome is what one point of one repetition produced.
type outcome struct {
	setupNs, runNs int64
	res            system.Results
	m              *machine
}

// build builds one point's machine and returns the time it took. The heap
// is collected first, outside the timed span, so every build starts from
// the same live heap; the build itself runs with the collector at its
// default settings, as the program's own builds do, and the collections
// its allocations set off count in its time.
func build(p point) (*machine, int64, error) {
	runtime.GC()
	t0 := time.Now()
	m, err := p.build()
	return m, int64(time.Since(t0)), err
}

// runPoint builds and runs one point. A build or run that returns an error
// is a failed point: it is reported on stderr and not timed.
func runPoint(p point) (outcome, bool) {
	m, setupNs, err := build(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: build failed: %v\n", p.label, err)
		return outcome{}, false
	}
	t0 := time.Now()
	r, err := m.run(cycleLimit)
	runNs := int64(time.Since(t0))
	m.kernel.StopWorkers()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: run failed: %v\n", p.label, err)
		return outcome{}, false
	}
	return outcome{setupNs: setupNs, runNs: runNs, res: r, m: m}, true
}

// digestTracker holds the per-point digests of the first completed
// repetition and checks every later one against them.
type digestTracker struct {
	pts  []point
	want []string
}

func newDigestTracker(pts []point) *digestTracker {
	return &digestTracker{pts: pts, want: make([]string, len(pts))}
}

// observe checks one point's result: the per-point invariants, then digest
// equality with the earlier repetitions.
func (d *digestTracker) observe(i int, o outcome) error {
	p := d.pts[i]
	if err := checkPoint(p, o.m, o.res); err != nil {
		return err
	}
	got := digest(o.res)
	switch d.want[i] {
	case "":
		d.want[i] = got
	case got:
	default:
		return fmt.Errorf("%s: digest %s differs from an earlier repetition's %s", p.label, got, d.want[i])
	}
	return nil
}

// print writes the digests as "digest <label> <hex>" lines on stdout, and
// the workload's combined digest when every point completed.
func (d *digestTracker) print(workload string) {
	for i, p := range d.pts {
		if d.want[i] != "" {
			fmt.Printf("digest %s %s\n", p.label, d.want[i])
		}
	}
	for _, w := range d.want {
		if w == "" {
			return
		}
	}
	fmt.Printf("digest %s %s\n", workload, combine(d.want))
}

// timedRun measures the end-to-end metrics. Repetitions run until the
// budget is spent; each first makes setupRounds build-only rounds, then
// builds every point afresh and runs it to the end of its quota, one point
// at a time, with nothing observing the machine. setup_s sums, over the
// points, the median of each point's build times in the run; the other
// time metrics are medians over the repetitions.
func timedRun(w workload, seed uint64, seconds int) (result, error) {
	pts := w.points(seed)
	runtime.GOMAXPROCS(procs(pts))
	digests := newDigestTracker(pts)
	res := result{Metrics: map[string]metric{}}
	builds := make([][]float64, len(pts))
	var runs, rates []float64
	var checkErr error
	start := time.Now()
	budget := time.Duration(seconds) * time.Second
	var last time.Duration
	for rep := 0; rep < minReps || time.Since(start)+last < budget; rep++ {
		t := time.Now()
		for r := 0; r < setupRounds; r++ {
			for i, p := range pts {
				_, ns, err := build(p)
				if err != nil {
					return res, fmt.Errorf("%s: build: %w", p.label, err)
				}
				builds[i] = append(builds[i], float64(ns)/1e9)
			}
		}
		var runNs int64
		var accesses uint64
		complete := true
		results := make([]system.Results, len(pts))
		for i, p := range pts {
			res.Attempted++
			o, ok := runPoint(p)
			if !ok {
				res.Failed++
				complete = false
				continue
			}
			if err := digests.observe(i, o); err != nil && checkErr == nil {
				checkErr = err
			}
			builds[i] = append(builds[i], float64(o.setupNs)/1e9)
			runNs += o.runNs
			accesses += o.res.Completed
			results[i] = o.res
		}
		last = time.Since(t)
		if !complete {
			continue
		}
		if w.check != nil {
			if err := w.check(pts, results); err != nil && checkErr == nil {
				checkErr = err
			}
		}
		runs = append(runs, float64(runNs)/1e9)
		rates = append(rates, float64(accesses)/(float64(runNs)/1e9))
		fmt.Fprintf(os.Stderr, "rep %d: run %.4fs\n", rep, float64(runNs)/1e9)
	}
	digests.print(w.name)
	if len(runs) == 0 {
		return res, fmt.Errorf("%s: no repetition completed", w.name)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	var setup float64
	for _, b := range builds {
		setup += median(b)
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["run_s"] = metric{median(runs), "s"}
	res.Metrics["accesses_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "check failed:", checkErr)
		return res, errIncorrect
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample reads the Go runtime's cumulative allocation and GC counters.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU                float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()}
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// profiled runs fn under the CPU profiler and attributes the profile.
func profiled(fn func()) (attribution, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return attribution{}, err
	}
	fn()
	pprof.StopCPUProfile()
	return attribute(buf.Bytes())
}

// tracedRun measures the per-layer metrics: build-only rounds under the
// profiler for the setup split, then repetitions that build every point
// unprofiled, attach perfmon, and run them all under the profiler. Layer
// times and runtime counters are means per repetition; simulated counts are
// per repetition and identical in each.
func tracedRun(w workload, seed uint64, seconds int) (result, error) {
	pts := w.points(seed)
	runtime.GOMAXPROCS(procs(pts))
	digests := newDigestTracker(pts)
	res := result{Metrics: map[string]metric{}}
	start := time.Now()
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	// Setup split: build-only rounds for a tenth of the budget, at least
	// two, under one profile. A build's leaf frames are nearly all
	// allocation in the runtime, so setup time is charged to the layer
	// whose constructor asked for it (ownerNs).
	budget := time.Duration(seconds) * time.Second
	rounds := 0
	var buildErr error
	setupProf, err := profiled(func() {
		for ; rounds < 2 || time.Since(start) < budget/10; rounds++ {
			for _, p := range pts {
				if _, _, err := build(p); err != nil {
					buildErr = fmt.Errorf("%s: build: %w", p.label, err)
					return
				}
			}
		}
	})
	if err == nil {
		err = buildErr
	}
	if err != nil {
		return res, err
	}
	perSetup := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	put("setup.total_ms", perSetup(setupProf.totalNs), "ms")
	for _, l := range layers {
		put("setup."+l+".ms", perSetup(setupProf.ownerNs[l]), "ms")
	}

	var runProf attribution
	var traced []float64
	var wallNs int64
	var cpu, spinNs, parkNs float64
	var rt runtimeSample
	var c counts
	var checkErr error
	reps := 0
	var last time.Duration
	for reps < 2 || time.Since(start)+last < budget {
		t := time.Now()
		ms := make([]*machine, len(pts))
		for i, p := range pts {
			m, _, err := build(p)
			if err != nil {
				return res, fmt.Errorf("%s: build: %w", p.label, err)
			}
			m.kernel.SetPerfMon(perfmon.New())
			ms[i] = m
		}
		runtime.GC()
		rt0, cpu0 := readRuntime(), cpuSeconds()
		var repNs int64
		outs := make([]outcome, len(pts))
		oks := make([]bool, len(pts))
		a, err := profiled(func() {
			for i, m := range ms {
				t0 := time.Now()
				r, err := m.run(cycleLimit)
				ns := int64(time.Since(t0))
				res.Attempted++
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: run failed: %v\n", pts[i].label, err)
					res.Failed++
					continue
				}
				repNs += ns
				outs[i], oks[i] = outcome{runNs: ns, res: r, m: m}, true
			}
		})
		if err != nil {
			return res, err
		}
		rt1, cpu1 := readRuntime(), cpuSeconds()
		runProf.add(a)
		reps++
		last = time.Since(t)
		traced = append(traced, float64(repNs)/1e9)
		wallNs += repNs
		cpu += cpu1 - cpu0
		rt.allocBytes += rt1.allocBytes - rt0.allocBytes
		rt.gcCycles += rt1.gcCycles - rt0.gcCycles
		rt.gcCPU += rt1.gcCPU - rt0.gcCPU
		c = counts{}
		for i, m := range ms {
			if rep := m.kernel.PerfReport(pts[i].label, "", outs[i].runNs); rep != nil {
				for _, wr := range rep.PerWorker {
					spinNs += float64(wr.SpinNs)
					parkNs += float64(wr.ParkNs)
				}
			}
			m.kernel.StopWorkers()
			if !oks[i] {
				continue
			}
			if err := digests.observe(i, outs[i]); err != nil && checkErr == nil {
				checkErr = err
			}
			c.add(m, outs[i].res)
		}
	}
	digests.print(w.name)

	perRep := func(ns float64) float64 { return ns / 1e6 / float64(reps) }
	for _, l := range layers {
		put(l+".self_ms", perRep(float64(runProf.selfNs[l])), "ms")
	}
	put("profile.total_ms", perRep(float64(runProf.totalNs)), "ms")
	put("noc.alloc_ms", perRep(float64(runProf.allocNs)), "ms")
	put("traced_run_s", median(traced), "s")
	put("pool.cpu_per_wall", ratio(cpu, float64(wallNs)/1e9), "s/s")
	put("pool.spin_ms", perRep(spinNs), "ms")
	put("pool.park_ms", perRep(parkNs), "ms")
	put("runtime.alloc_mb", float64(rt.allocBytes)/float64(reps)/(1<<20), "MB")
	put("runtime.gc_cycles", float64(rt.gcCycles)/float64(reps), "count")
	put("runtime.gc_cpu_ms", rt.gcCPU*1e3/float64(reps), "ms")
	c.put(put, float64(runProf.selfNs["noc"])/float64(reps), float64(wallNs)/float64(reps))
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "check failed:", checkErr)
		return res, errIncorrect
	}
	return res, nil
}

// counts sums one repetition's simulated statistics over its points. They
// are deterministic: only a change to the model moves them.
type counts struct {
	cycles, steps, ffCycles, parks, activations        uint64
	flits, bypasses, allocStalls                       uint64
	snoopsSeen, snoopsFiltered, l2Misses, notifWindows uint64
	dirTransactions, dirCacheMisses, accesses          uint64
	orderingLat, missLat                               meanAcc
}

type meanAcc struct{ sum, n float64 }

func (m meanAcc) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

func (c *counts) add(m *machine, r system.Results) {
	a := m.kernel.ActivityCounters()
	c.cycles += r.Cycles
	c.steps += a.StepsExecuted
	c.ffCycles += a.FastForwardCycles
	c.parks += a.Parks
	c.activations += a.Activations
	c.flits += r.FlitsRouted
	c.bypasses += r.Bypasses
	c.allocStalls += m.allocStalls()
	c.snoopsSeen += r.SnoopsSeen
	c.snoopsFiltered += r.SnoopsFiltered
	c.l2Misses += r.L2Misses
	c.notifWindows += m.notifWindows()
	c.dirTransactions += r.DirTransactions
	c.dirCacheMisses += r.DirCacheMisses
	c.accesses += r.Completed
	c.orderingLat.sum += r.OrderingLat.Sum
	c.orderingLat.n += float64(r.OrderingLat.Count)
	c.missLat.sum += r.MissLat.Sum
	c.missLat.n += float64(r.MissLat.Count)
}

// put reports the counts, plus the two cost ratios built on them: noc self
// time per routed flit and traced wall time per executed kernel step.
func (c *counts) put(put func(string, float64, string), nocNs, wallNs float64) {
	n := func(name string, v uint64) { put(name, float64(v), "count") }
	n("sim.cycles", c.cycles)
	n("sim.steps", c.steps)
	n("sim.ff_cycles", c.ffCycles)
	n("sim.parks", c.parks)
	n("sim.activations", c.activations)
	n("noc.flits_routed", c.flits)
	n("noc.bypasses", c.bypasses)
	n("noc.alloc_stalls", c.allocStalls)
	n("coherence.snoops_seen", c.snoopsSeen)
	n("coherence.snoops_filtered", c.snoopsFiltered)
	n("coherence.l2_misses", c.l2Misses)
	n("notif.windows", c.notifWindows)
	n("directory.transactions", c.dirTransactions)
	n("directory.cache_misses", c.dirCacheMisses)
	n("trace.accesses", c.accesses)
	put("nic.ordering_lat_cycles", c.orderingLat.value(), "cycles")
	put("trace.miss_lat_cycles", c.missLat.value(), "cycles")
	put("noc.ns_per_flit", ratio(nocNs, float64(c.flits)), "ns")
	put("sim.ns_per_step", ratio(wallNs, float64(c.steps)), "ns")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
