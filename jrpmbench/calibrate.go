package main

import (
	"fmt"
	"math"
	"time"
)

// The development VM's effective speed drifts by up to 2x over minutes as
// other tenants load the physical host, which no statistic over one run
// can remove. The benchmark therefore also times two fixed reference
// kernels that share no code with the program under test — a switch-
// dispatched register interpreter, like the simulator's inner loop, and a
// dependent random walk over 16 MB, like its memory misses — sampled
// through the run, and scales every host timing by the nominal time over a
// weighted geometric mean of the two kernels' median times in this run. A
// change to the program moves the scaled timings; a change in host speed
// moves the kernels and the program together and cancels out. On the
// development VM a suite pass varied 13% over 20 s blocks and its ratio to
// this mean 4%; across a shift in which the pass ran 1.85x faster the
// interpreter kernel ran 1.9x and the random walk 1.3x faster, hence the
// interpreter's larger weight. The report prints the raw timings and the
// factor.

// refNominal is the kernels' geometric-mean time on the development host;
// it only fixes the scale of the normalized timings.
const refNominal = 10 * time.Millisecond

// calInterval is how often a closed loop stops between jobs for a sample.
const calInterval = 400 * time.Millisecond

var (
	refTable  = make([]uint64, 1<<21) // 16 MB, larger than the caches
	refMemory = make([]int64, 8192)   // the interpreter's data memory
	refSink   uint64
)

// memKernel walks refTable with data-dependent indices.
func memKernel() time.Duration {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	mask := uint64(len(refTable) - 1)
	for i := 0; i < 1<<21; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 29) & mask
		v := refTable[idx]
		switch v & 3 {
		case 0:
			refTable[idx] = v + x
		case 1:
			x ^= v
		case 2:
			x += v >> 3
		default:
			refTable[idx] = v ^ (x >> 7)
		}
	}
	refSink = x
	return time.Since(t0)
}

type refIns struct{ op, a, b, c int32 }

// refProgram is the interpreter kernel's loop: loads, stores, arithmetic
// and a data-dependent branch.
var refProgram = []refIns{
	{0, 1, 0, 1}, // r1 += 1
	{1, 2, 1, 0}, // r2 = mem[r1]
	{2, 3, 2, 5}, // r3 += r2 * 5
	{3, 0, 3, 0}, // mem[r1*7] = r3
	{4, 3, 0, 6}, // if r3 odd goto 6
	{5, 4, 3, 0}, // r4 ^= r3
	{6, 5, 1, 0}, // r5 += r1 >> 3
	{7, 0, 0, 0}, // goto 0
}

// vmKernel interprets refProgram for a fixed number of steps.
func vmKernel() time.Duration {
	t0 := time.Now()
	var r [8]int64
	mask := int64(len(refMemory) - 1)
	pc := 0
	for step := 0; step < 3_000_000; step++ {
		in := refProgram[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] += int64(in.c)
		case 1:
			r[in.a] = refMemory[r[in.b]&mask]
		case 2:
			r[in.a] += r[in.b] * int64(in.c)
		case 3:
			refMemory[(r[1]*7)&mask] = r[in.b]
		case 4:
			if r[in.a]&1 == 1 {
				pc = int(in.c)
			}
		case 5:
			r[in.a] ^= r[in.b]
		case 6:
			r[in.a] += r[in.b] >> 3
		case 7:
			pc = 0
		}
	}
	refSink = uint64(r[3] + r[4] + r[5])
	return time.Since(t0)
}

// calibrator collects reference-kernel samples through a run.
type calibrator struct {
	last     time.Time
	mem, cpu []float64 // ms
}

func newCalibrator() *calibrator {
	memKernel() // fault the table in
	vmKernel()
	return &calibrator{}
}

// sample times each kernel once.
func (c *calibrator) sample() {
	c.mem = append(c.mem, ms(memKernel()))
	c.cpu = append(c.cpu, ms(vmKernel()))
	c.last = time.Now()
}

// maybe samples when calInterval has passed since the last sample.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calInterval {
		c.sample()
	}
}

// refMS is the weighted geometric mean of the kernels' median times.
func (c *calibrator) refMS() float64 {
	return math.Pow(summarize(c.cpu, 50).P50, 0.75) * math.Pow(summarize(c.mem, 50).P50, 0.25)
}

// factor is the scale applied to host timings: nominal over the measured
// reference time (1 with no samples).
func (c *calibrator) factor() float64 {
	if len(c.mem) == 0 {
		return 1
	}
	return ms(refNominal) / c.refMS()
}

func (c *calibrator) String() string {
	return fmt.Sprintf("reference kernels: memory walk %s ms, interpreter %s ms; host-speed factor %.4f",
		summarize(c.mem, 0), summarize(c.cpu, 0), c.factor())
}
