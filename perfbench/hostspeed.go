package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Shared virtual machines change speed by tens of percent over minutes,
// for identical work, as neighbours come and go. The end-to-end times
// are therefore reported at a nominal host speed: each pass's time is
// scaled by refKernelNominal ÷ the reference kernel's time measured next
// to it. The kernel is the benchmark's own fixed code, so no change to
// the program under test can move it.

// refKernelNominal is the reference kernel's time in seconds at nominal
// speed: a round figure near its time on the 2-vCPU Xeon VM the
// benchmark was tuned on, so that reported times stay close to the raw
// times there.
const refKernelNominal = 0.02

// refWords is the size of each kernel goroutine's working set, in
// 8-byte words (2 MiB). It is mapped outside the Go heap so that it
// does not shift the program's garbage-collection pacing.
const refWords = 1 << 18

var refBufs = func() [][]uint64 {
	bufs := make([][]uint64, runtime.GOMAXPROCS(0))
	for i := range bufs {
		b, err := syscall.Mmap(-1, 0, 8*refWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		bufs[i] = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), refWords)
	}
	return bufs
}()

// refSink keeps the kernel's results observable, one slot per buffer.
var refSink = make([]float64, len(refBufs))

// refKernel is the fixed reference work: a xorshift stream driving
// random reads and writes over the working set, mixed with exp and log,
// the two kinds of work the workloads spend their time on.
func refKernel(buf []uint64) float64 {
	x := uint64(88172645463325252)
	var s float64
	for i := 0; i < 400000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		v := float64(buf[j]&1023) + math.Exp(-float64(i&1023)/512)
		buf[j] = buf[j]*6364136223846793005 + x
		s += math.Log1p(v)
	}
	return s
}

// hostSeconds runs the reference kernel on every CPU at once, three
// times, and returns the median of the per-round mean kernel time: the
// current speed of the whole host as the parallel workloads see it.
func hostSeconds() float64 {
	var rounds []float64
	for r := 0; r < 3; r++ {
		secs := make([]float64, len(refBufs))
		var wg sync.WaitGroup
		for i, buf := range refBufs {
			wg.Add(1)
			go func(i int, buf []uint64) {
				defer wg.Done()
				t0 := time.Now()
				refSink[i] += refKernel(buf)
				secs[i] = time.Since(t0).Seconds()
			}(i, buf)
		}
		wg.Wait()
		var sum float64
		for _, s := range secs {
			sum += s
		}
		rounds = append(rounds, sum/float64(len(secs)))
	}
	return median(rounds)
}
