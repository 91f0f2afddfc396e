package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"scorpio/internal/stats"
	"scorpio/internal/system"
)

// digest fingerprints a point's simulated statistics: every count and
// latency Results carries. Two runs of the same model on the same seed give
// the same digest; a change that only speeds the simulator up must keep it.
func digest(r system.Results) string {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	mean := func(m stats.Mean) { f(m.Sum); u(m.Count) }
	breakdown := func(b *stats.Breakdown) {
		u(b.Count())
		f(b.Total())
		for c := 0; c < stats.NumBreakdownComponents; c++ {
			f(b.Mean(stats.BreakdownComponent(c)))
		}
	}
	h.Write([]byte(r.Protocol + "/" + r.Benchmark))
	for _, v := range []uint64{r.Cycles, r.LastDone, r.Completed,
		r.L2Hits, r.L2Misses, r.SnoopsSeen, r.SnoopsFiltered, r.Writebacks, r.FIDDeferrals,
		r.DirTransactions, r.DirCacheHits, r.DirCacheMisses, r.FlitsRouted, r.Bypasses} {
		u(v)
	}
	for _, m := range []stats.Mean{r.Service, r.HitLat, r.MissLat, r.OrderingLat, r.ReqNetworkLat} {
		mean(m)
	}
	breakdown(&r.CacheServed)
	breakdown(&r.MemServed)
	if r.ServiceHist != nil {
		u(r.ServiceHist.Count())
		u(r.ServiceHist.Sum())
		u(r.ServiceHist.Max())
		for _, q := range []float64{50, 90, 99} {
			u(r.ServiceHist.Percentile(q))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// combine folds per-point digests, in point order, into one workload digest.
func combine(digests []string) string {
	h := fnv.New64a()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
