package main

import (
	"math/rand"
	"sort"
	"time"
)

// The shared host these numbers come from runs the same code up to 1.8×
// slower from minute to minute, while its steal counter stays near zero, so
// raw wall times drift more between runs than most changes move them. A
// calibration sampler runs a small fixed kernel (random lookups in a 64k
// entry map and a 20k-integer sort, code that shares nothing with the
// program under test) every 50 ms on its own goroutine while an operation
// runs. Its median time over the operation says how fast the host was, and
// normalise scales the operation's wall time to the kernel's reference
// speed. bench/README.md gives the measurements behind this choice.

// calibrationRefMS is the kernel's median time on the reference host (a
// 2-vCPU 2.1 GHz Xeon VM): normalised times read as wall times would there.
const calibrationRefMS = 3.0

// sampleEvery is the sampler's period.
const sampleEvery = 50 * time.Millisecond

// calibrator is the kernel's state, built once per run.
type calibrator struct {
	m       map[uint64]uint32
	keys    []uint64
	src, xs []int
	sink    uint64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{m: make(map[uint64]uint32, 1<<16), src: r.Perm(20000), xs: make([]int, 20000)}
	for len(c.m) < 1<<16 {
		k := r.Uint64()
		c.m[k] = uint32(len(c.m))
		c.keys = append(c.keys, k)
	}
	return c
}

// run times one pass of the kernel.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	k := 7
	for i := 0; i < 30_000; i++ {
		k = (k*31 + 17) % len(c.keys)
		c.sink += uint64(c.m[c.keys[k]])
	}
	copy(c.xs, c.src)
	sort.Ints(c.xs)
	c.sink += uint64(c.xs[0])
	return time.Since(t0)
}

// sampler runs the kernel at once and then every sampleEvery until finish.
type sampler struct {
	stop, done chan struct{}
	xs         []float64
}

func (c *calibrator) start() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			s.xs = append(s.xs, ms(c.run()))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for its goroutine and returns the
// median kernel time in milliseconds.
func (s *sampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.xs)
}

// normalise scales a wall time to the kernel's reference speed, given the
// kernel's median time over it, and returns milliseconds.
func normalise(wall time.Duration, calibMS float64) float64 {
	return ms(wall) * calibrationRefMS / calibMS
}
