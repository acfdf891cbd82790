package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	// setupBatch is how many set-up passes run before each timed pass;
	// setup_s is the median over all of them, so it samples the host
	// across the whole window rather than in one burst.
	setupBatch = 20
	// minPasses is the least number of timed passes per run, whatever
	// the window; wall_s and alloc_mb are medians over the passes.
	minPasses = 3
)

// endToEnd measures the untraced end-to-end metrics. Each round runs
// the reference kernel, a batch of set-up passes and one full timed
// pass, until the window is spent. Every full pass's outputs are
// checked. Times are scaled to nominal host speed by the reference
// kernel runs on either side of them (hostspeed.go).
func endToEnd(w workload, seed int64, window time.Duration) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := res.reference(w); err != nil {
		return res, err
	}

	var setups, walls, rawWalls, allocs, rounds []float64
	host := hostSeconds()
	start := time.Now()
	for len(walls) < minPasses || time.Since(start)+time.Duration(median(rounds)*float64(time.Second)) <= window {
		r0 := time.Now()
		before := host
		for i := 0; i < setupBatch; i++ {
			p, err := newPass(w, seed, true)
			if err != nil {
				return res, err
			}
			runtime.GC()
			err = p.invoke()
			p.cleanup()
			if !errors.Is(err, errSetupDone) {
				return res, fmt.Errorf("set-up pass: %v", err)
			}
			setups = append(setups, p.setupSeconds()*refKernelNominal/before)
		}

		p, err := newPass(w, seed, false)
		if err != nil {
			return res, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p.err = p.invoke()
		runtime.ReadMemStats(&m1)
		p.cleanup()
		res.tally(p)
		host = hostSeconds()
		walls = append(walls, p.wallSeconds()*refKernelNominal/((before+host)/2))
		rawWalls = append(rawWalls, p.wallSeconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		rounds = append(rounds, time.Since(r0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d set-up passes, %d timed passes, raw wall median %.4g s\n",
		w.name, seed, len(setups), len(walls), median(rawWalls))
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
	return res, nil
}

// fullPass runs one untimed full pass; tally checks it.
func fullPass(w workload, seed int64) (*pass, error) {
	p, err := newPass(w, seed, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	p.err = p.invoke()
	p.cleanup()
	return p, nil
}

// reference runs a tandem workload once, untimed, at the pinned
// reference seed: the recorded outputs guard bit-reproducibility, and
// the pass grows the heap the timed passes then reuse.
func (r *result) reference(w workload) error {
	if w.ref == nil {
		return nil
	}
	p, err := fullPass(w, refSeed)
	if err != nil {
		return err
	}
	r.tally(p)
	return nil
}

// tally counts a checked pass's operations: its sweep points, or its
// replications. A failed run or a failed output check fails them all.
func (r *result) tally(p *pass) {
	ops := p.w.ops(p.points)
	r.Attempted += ops
	var bad []string
	if p.err != nil {
		bad = []string{p.err.Error()}
	} else {
		bad = checkPass(p)
	}
	if len(bad) > 0 {
		r.Failed += ops
		r.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %s\n", p.w.name, p.seed, strings.Join(bad, "; "))
	}
}
