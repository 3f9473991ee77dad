package main

import (
	"math"
	"slices"
	"time"
)

// The host this benchmark is tuned on is a shared VM whose speed drifts by
// tens of percent over seconds to minutes: the same binary on the same
// input runs 2.8 s in one minute and 4.8 s in the next, and its CPU time
// moves with it. Timings taken in one run and compared with timings taken
// minutes later carry that drift.
//
// So the benchmark times a fixed set of calibration kernels — its own code,
// which no change to the program touches — between stretches of measured
// work, and reports every time in reference units: the time measured,
// divided by the slowdown the kernels showed around it, where the
// slowdown is each kernel's time over its reference time (the kernel's
// median on the reference machine), averaged geometrically. A change to
// the program moves these numbers; a change in the host's speed largely
// does not. The kernels are a transcendental-math loop (as path loss and
// SINR are), a sort of random integers (branchy, cache-resident) and hash
// map inserts and lookups (as the daemon's bookkeeping is), the mix whose
// slowdown tracked the workloads' best on the reference machine.

// calibrateEvery is how much measured work passes between calibrations
// inside a simulation.
const calibrateEvery = 100 * time.Millisecond

// calKernel is one calibration kernel and its reference time in ms.
type calKernel struct {
	run func()
	ref float64
}

var calKernels = []calKernel{
	{calPow, 1.2},
	{calSort, 1.2},
	{calMap, 0.9},
}

// The kernels' buffers are reused, so calibrating does not allocate once
// the map has grown. calSink keeps the kernels' results live.
var (
	calSortSrc = func() []int {
		src := make([]int, 4096)
		s := uint64(0x9e3779b97f4a7c15)
		for i := range src {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			src[i] = int(s >> 1)
		}
		return src
	}()
	calSortBuf  = make([]int, len(calSortSrc))
	calMapTable = make(map[uint64]uint64, 1<<15)
	calSink     float64
)

func calPow() {
	x := 0.0
	for i := 0; i < 15000; i++ {
		d := 1 + float64(i&1023)*0.001
		x += math.Pow(d, -3.5) + math.Sqrt(d)
	}
	calSink += x
}

func calSort() {
	for r := 0; r < 4; r++ {
		copy(calSortBuf, calSortSrc)
		slices.Sort(calSortBuf)
	}
	calSink += float64(calSortBuf[0])
}

func calMap() {
	clear(calMapTable)
	const n = 20000
	for i := uint64(0); i < n; i++ {
		calMapTable[i*0x9e3779b97f4a7c15] = i
	}
	var acc uint64
	for i := uint64(0); i < n; i++ {
		acc += calMapTable[i*0x9e3779b97f4a7c15]
	}
	calSink += float64(acc)
}

// slowdown runs every kernel once and returns how much slower than the
// reference machine this host ran them: 1 is reference speed, 1.2 is 20%
// slower. It uses shared buffers, so only one goroutine may call it.
func slowdown() float64 {
	logSum := 0.0
	for _, k := range calKernels {
		t := time.Now()
		k.run()
		logSum += math.Log(float64(time.Since(t)) / 1e6 / k.ref)
	}
	return math.Exp(logSum / float64(len(calKernels)))
}
