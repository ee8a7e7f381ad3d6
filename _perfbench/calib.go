package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// A shared VM's speed drifts: the same code, in the same thread CPU
// time, runs tens of percent slower from one minute to the next. To keep
// that out of the gated figures, each run times a fixed kernel of the
// benchmark's own (no Tempest code in it) on a locked thread, before and
// after the timed phase, and scales the figures to the speed at which
// the kernel takes calibRef. A change to Tempest moves the figures and
// not the kernel; a change in the host moves both.
//
// The kernel is xorshift arithmetic (spin). Three others were tried:
// random updates over a 4 MiB table, map inserts with small allocations,
// and sequential passes over 32 MiB. Over ten runs of each workload on a
// noisy host, scaling by the arithmetic kernel cut the interquartile
// range of every gated time and rate, to 5-16% of the median from
// 16-25%. The memory-bound kernels varied more than the workloads did
// and, on a calmer host, made the spread wider.

const (
	calibSpin = 1 << 22 // xorshift rounds per kernel run
	// calibReps kernel runs are timed on each side of the timed phase;
	// the speed comes from the median of all of them.
	calibReps = 15
	// calibRef is the kernel's median thread CPU time on the 2-vCPU
	// Intel Xeon VM the bounds were set on.
	calibRef = 11 * time.Millisecond
)

var calibSink uint64

// calibrate times calibReps kernel runs with the thread CPU clock, which
// leaves out time the hypervisor stole, and appends them (ns) to xs.
func calibrate(xs []float64) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < calibReps; i++ {
		c0 := threadCPU()
		calibSink += spin(calibSpin)
		xs = append(xs, float64(threadCPU()-c0))
	}
	return xs
}

// scaling brings a workload's measured figures to the reference speed
// and, where steal slows them, to unstolen time.
type scaling struct {
	// steal is the share of busy vCPU time the hypervisor stole from this
	// VM in the timed phase; 0 where the phase is timed with the thread
	// CPU clock, which leaves steal out already.
	steal float64
	// speed is the host's speed relative to the reference: calibRef over
	// the kernel's median time in this run.
	speed float64
}

func newScaling(calib []float64, steal float64) scaling {
	return scaling{steal: steal, speed: float64(calibRef) / median(calib)}
}

// rate scales events or requests per second.
func (s scaling) rate(r float64) float64 { return r / (1 - s.steal) / s.speed }

// wall scales a wall-clock duration.
func (s scaling) wall(t float64) float64 { return t * (1 - s.steal) * s.speed }

// cpu scales a CPU time, a set-up time, or a latency median that steal
// does not reach.
func (s scaling) cpu(t float64) float64 { return t * s.speed }

// print reports the host figures and the gated metrics as measured,
// before scaling.
func (s scaling) print(w io.Writer, measured map[string]float64) {
	fmt.Fprintf(w, "host: steal %.1f%% of busy vCPU time in the timed phase; speed %.4f of the reference (calibration kernel median %.3f ms, reference %v)\n",
		100*s.steal, s.speed, ms(time.Duration(float64(calibRef)/s.speed)), calibRef)
	fmt.Fprint(w, "as measured:")
	for _, m := range endToEnd {
		if v, ok := measured[m.name]; ok {
			fmt.Fprintf(w, " %s=%.6g", m.name, v)
		}
	}
	fmt.Fprintln(w)
}
