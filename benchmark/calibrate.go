package main

import (
	"sort"
	"time"
)

// The sandbox shares its host, and the host's other tenants set how fast
// this process runs: measured on the 2-core box, the same binary's timings
// move together by 10-50% from one minute to the next (plsqlaway.Compile of
// the corpus, single-threaded and CPU-bound, reads anywhere from 0.9 to
// 1.55 ms), which is more than any bound a regression check could use. So
// the run measures the machine beside the system: a fixed kernel that
// touches nothing of plsqlaway is timed every calEvery of the timed window,
// and every duration is reported at the reference machine speed, scaled by
// calRefMs over the kernel's median time in the same round. Over 7 s
// windows the kernel's time tracks each workload's op time with r = 0.75 to
// 0.99; over ten runs per workload, scaling by it brought the quartile
// distance of ops_per_s, op_p50_ms and op_tail_ms from 3-21% of the median
// down to 2-8% on the four workloads measured while the host was calm.
//
// The kernel is four loops whose sensitivity to a busy host brackets the
// workloads': independent multiply-add chains (execution ports), random
// reads and writes in 256 KiB (the core's own cache) and in 8 MiB (past
// the 4 MiB L2, so shared cache and memory), and small allocations kept in
// a map (allocator, write barriers, GC assists). The table lives in BSS,
// outside the collector's heap; what the last loop allocates is measured
// once at start-up and taken off every round's allocation count.
const (
	calEvery = 100 * time.Millisecond
	calRefMs = 8.5 // about the kernel's time beside a workload on the 2-core box when its host is quiet
)

var (
	calTable [1 << 20]uint64
	calSink  uint64
	// calAllocBytes is what one calibrate() allocates.
	calAllocBytes = func() uint64 {
		calibrate() // first touch of the table
		before := readRuntime(mAllocBytes)[0]
		calibrate()
		return readRuntime(mAllocBytes)[0] - before
	}()
)

// calibrate runs the kernel once and returns how long it took.
func calibrate() time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), calSink
	for i := 0; i < 1_000_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*2862933555777941757 + 3037000493
		c ^= c<<13 ^ c>>7
		d += a ^ b ^ c
	}
	for _, n := range []struct{ iters, mask uint64 }{{800_000, 1<<15 - 1}, {200_000, 1<<20 - 1}} {
		for i := uint64(0); i < n.iters; i++ {
			a = a*6364136223846793005 + 1442695040888963407
			d += calTable[(a>>40)&n.mask]
			calTable[(a>>20)&n.mask] = d
		}
	}
	m := map[int][]int{}
	for i := 0; i < 30_000; i++ {
		s := make([]int, 8)
		s[0] = i
		m[i&1023] = append(m[i&1023][:0:0], s...)
	}
	calSink = d + uint64(len(m))
	return time.Since(t0)
}

// machineSpeed turns kernel timings into the machine's speed relative to
// the reference: below 1 when the host is busy. A duration measured beside
// the samples times the speed is that duration at the reference speed; a
// rate is divided by it.
func machineSpeed(samples []time.Duration) float64 {
	return calRefMs / ms(medianDur(samples))
}

// quietShare of the run's best machine speed is the least at which a
// round still counts as quiet.
const quietShare = 0.9

// quiet marks the rounds a run's medians are taken over: those the host
// left at no less than quietShare of the fastest round's machine speed,
// and never fewer than minRounds, the fastest ones. Scaling by machine
// speed is exact only for work as CPU-bound as the kernel; a loopback
// round trip or an fsync slows by less than the kernel does when the host
// is busy, so a round measured at half speed is over-corrected. Choosing
// rounds by the kernel's time, which knows nothing of the system, drops
// those without looking at the values being reported.
func quiet(rounds []roundStats) []bool {
	bySpeed := make([]int, len(rounds))
	for i := range bySpeed {
		bySpeed[i] = i
	}
	sort.Slice(bySpeed, func(a, b int) bool { return rounds[bySpeed[a]].speed > rounds[bySpeed[b]].speed })
	keep := make([]bool, len(rounds))
	for n, i := range bySpeed {
		keep[i] = n < minRounds || rounds[i].speed >= quietShare*rounds[bySpeed[0]].speed
	}
	return keep
}
