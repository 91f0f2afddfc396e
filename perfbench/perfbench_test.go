package main

import (
	"bytes"
	"flag"
	"os"
	"runtime/pprof"
	"slices"
	"testing"

	"scorpio/internal/system"
)

var record = flag.Bool("record", false, "rewrite "+recordedProfile+" from a fresh run")

// recordedProfile is a CPU profile of a short 4×4 SCORPIO run.
const recordedProfile = "testdata/scorpio16.pprof.gz"

func smallPoint(seed uint64) point {
	return scorpioPoint("test/barnes", scorpioOptions("barnes", 4, 1, 100, 200, seed))
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"scorpio/internal/noc.(*Router).allocate":                   "noc",
		"scorpio/internal/ring.(*Ring[go.shape.int32]).Push":        "ring",
		"scorpio/internal/obs/perfmon.(*Mon).Worker":                "obs",
		"scorpio/internal/sim.(*Kernel).Step":                       "sim",
		"scorpio/internal/litmus.Run":                               "other",
		"runtime.mallocgc":                                          "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "runtime",
		"sync/atomic.(*Int64).Add":                                  "runtime",
		"main.timedRun":                                             "other",
		"hash/fnv.(*sum64a).Write":                                  "other",
		"scorpio.Run":                                               "other",
		"scorpio/internal/directory.(*Home).Evaluate":               "directory",
		"scorpio/internal/system.(*Scorpio).Done":                   "system",
		"scorpio/internal/notif.(*Network).Evaluate":                "notif",
		"scorpio/internal/coherence.(*L2Controller).ProcessOrdered": "coherence",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// checkAttribution holds what every attributed profile must satisfy: the
// layer self times sum to the profiled total, and a SCORPIO run spends most
// of its time in the router, part of it under switch allocation.
func checkAttribution(t *testing.T, a attribution) {
	t.Helper()
	var sum int64
	for l, ns := range a.selfNs {
		if !slices.Contains(layers, l) {
			t.Errorf("unknown layer %q", l)
		}
		sum += ns
	}
	if a.totalNs <= 0 || sum != a.totalNs {
		t.Fatalf("layer self times sum to %d ns, profile total %d ns", sum, a.totalNs)
	}
	sum = 0
	for l, ns := range a.ownerNs {
		if !slices.Contains(layers, l) {
			t.Errorf("unknown owner layer %q", l)
		}
		sum += ns
	}
	if sum != a.totalNs {
		t.Fatalf("owner layer times sum to %d ns, profile total %d ns", sum, a.totalNs)
	}
	if a.ownerNs["runtime"] > a.selfNs["runtime"] {
		t.Errorf("owner attribution charged more to runtime (%d ns) than leaf attribution (%d ns)", a.ownerNs["runtime"], a.selfNs["runtime"])
	}
	for l, ns := range a.selfNs {
		if l != "noc" && ns > a.selfNs["noc"] {
			t.Errorf("layer %s (%d ns) above noc (%d ns)", l, ns, a.selfNs["noc"])
		}
	}
	if a.allocNs <= 0 || a.allocNs > a.totalNs {
		t.Errorf("noc alloc time %d ns outside (0, %d]", a.allocNs, a.totalNs)
	}
}

func TestAttributeRecordedProfile(t *testing.T) {
	if *record {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, ok := runPoint(smallPoint(uint64(i + 1))); !ok {
				t.Fatal("point failed")
			}
		}
		pprof.StopCPUProfile()
		if err := os.WriteFile(recordedProfile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gz, err := os.ReadFile(recordedProfile)
	if err != nil {
		t.Fatal(err)
	}
	a, err := attribute(gz)
	if err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, a)
}

func TestAttributeRejectsGarbage(t *testing.T) {
	if _, err := attribute([]byte("not a profile")); err == nil {
		t.Fatal("attribute accepted a non-gzip input")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
}

// TestDigestRepeatsAndSeparatesSeeds: the same seed gives the same
// statistics, another seed gives other statistics.
func TestDigestRepeatsAndSeparatesSeeds(t *testing.T) {
	var ds []string
	for _, seed := range []uint64{3, 3, 4} {
		p := smallPoint(seed)
		o, ok := runPoint(p)
		if !ok {
			t.Fatal("point failed")
		}
		if err := checkPoint(p, o.m, o.res); err != nil {
			t.Fatal(err)
		}
		ds = append(ds, digest(o.res))
	}
	if ds[0] != ds[1] || ds[0] == ds[2] {
		t.Fatalf("digests %v: want first two equal, third different", ds)
	}
}

// mesh256Options is SCORPIO on 16×16: the phase pool at scale and 256-node
// notification vectors. Every miss broadcasts to 256 nodes, so the mesh
// saturates at any useful rate; swaptions at 0.02× its issue rate with one
// outstanding miss per core stays well inside the cycle limit.
func mesh256Options(seed uint64, workers int) system.Options {
	opt := scorpioOptions("swaptions", 16, 0.02, 8, 16, seed)
	opt.MaxOutstanding = 1
	opt.Workers = workers
	return opt
}

// TestMesh256ParallelMatchesSerial: a 16×16 point gives the same simulated
// statistics at workers=2 as at workers=1. Too slow to repeat in every
// benchmark run, so it lives here.
func TestMesh256ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("16×16 runs take several seconds")
	}
	var ds []string
	for _, workers := range []int{1, 2} {
		p := scorpioPoint("mesh256", mesh256Options(defaultSeed, workers))
		o, ok := runPoint(p)
		if !ok {
			t.Fatal("point failed")
		}
		if err := checkPoint(p, o.m, o.res); err != nil {
			t.Fatal(err)
		}
		ds = append(ds, digest(o.res))
	}
	if ds[0] != ds[1] {
		t.Fatalf("workers=1 digest %s, workers=2 digest %s", ds[0], ds[1])
	}
}
