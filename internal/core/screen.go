package core

import "math"

// screen prices every candidate breakpoint of s.cands approximately, in
// O(1) from prefix sums plus an O(log H) boundary search, and compacts in
// place, in their original order, the candidates the exact sweep must
// still see; it returns the compacted s.cands and s.hints. It runs after
// innerSolve has built its tables, the prefix sums of the θ ratio table
// among them, and enumerated the candidates. The exact sweep runs
// unchanged over the survivors, so (D, X) stay bit-identical (DESIGN.md
// §16, "Screened candidates").
//
// Candidate k's approximate total T̃ₖ reads the θ sum of its active hops
// off prefix sums of the regime's θ ratio table (σ/ch_i, or σ/(ch_i − β)
// when Δ > 0) and of 1/ch_i (the X > −Δ and saturated pieces), over the
// active hops the sweep finds: their boundaries are the sweep's own
// monotone hop predicates, searched out from a hint. Eₖ bounds the
// rounding of both T̃ₖ and the sweep's sequential sum, so the exact
// total Tₖ lies in [T̃ₖ − Eₖ, T̃ₖ + Eₖ]. With T* the least T̃ⱼ + Eⱼ,
// n candidates and τ = 2e-12·(1+|T*|), candidate k is kept iff
//
//	T̃ₖ − Eₖ <= T* + (n+1)·τ,
//
// or when T̃ₖ ± Eₖ is not finite. A dropped candidate's exact total then
// exceeds the minimum by more than (n+1)·τ, and the sweep over the
// survivors adopts and ties exactly as the sweep over all of them.
func (s *Scratch) screen(h int, beta, delta, sigma float64) (cands []float64, hints []int32) {
	var minHi float64
	if delta <= 0 {
		minHi = s.screenLow(h, beta, delta, sigma)
	} else {
		minHi = s.screenHigh(h, beta, delta, sigma)
	}

	// A minHi of +Inf keeps every candidate (thr is +Inf), and so does
	// one of −Inf (thr is NaN).
	cands, hints = s.cands, s.hints
	lo := s.sums[2*(h+1) : 2*(h+1)+len(cands)]
	thr := minHi + float64(len(cands)+1)*(2e-12*(1+math.Abs(minHi)))
	w := 0
	for k, x := range cands {
		if !(lo[k] > thr) {
			cands[w], hints[w] = x, hints[k]
			w++
		}
	}
	return cands[:w], hints[:w]
}

// screenCoef returns Eₖ's factor: Eₖ = screenCoef(h)·mag, with mag the
// sum of the magnitudes T̃ₖ is formed from. A prefix-sum difference
// rounds by at most about 2h ulps of its table's total, the sweep's
// sequential sum by about h+2 ulps of mag, the few operations that form
// T̃ₖ by one ulp each, and the Δ <= 0 regime's ambiguous hops
// (screenLow) add about 12 ulps: (5h+23) ulps in all. The factor,
// 2⁻⁵²·(4h+24) = 2⁻⁵³·(8h+48), covers that with room to spare. Rounding
// below the float64 normal range is absolute, not relative, and the
// band's 1 + |T*| floor dwarfs it.
func screenCoef(h int) float64 { return float64(4*h+24) * 0x1p-52 }

// invSums fills and returns the prefix sums of 1/ch_i, inv[i] =
// Σ_{j<i} 1/ch_j, for the candidates that read them (X > −Δ, and
// saturated hops).
func (s *Scratch) invSums(h int) []float64 {
	inv := s.sums[h+1 : 2*(h+1) : 2*(h+1)]
	inv[0] = 0
	sum := 0.0
	for i, ch := range s.chs[:h] {
		sum += 1 / ch
		inv[i+1] = sum
	}
	return inv
}

// screenBound stores a candidate's lower screen bound T̃ − E in *lo and
// returns the least upper bound T̃ + E so far. A T̃ that is not finite
// stores NaN and an E that is not finite −Inf, both of which keep the
// candidate; a T̃ + E of −Inf makes the threshold NaN, which keeps
// every candidate.
func screenBound(lo *float64, t, ek, minHi float64) float64 {
	*lo = t - ek - (t - t)
	if hi := t + ek; hi < minHi {
		return hi
	}
	return minHi
}

// lowTotal returns T̃ₖ and its magnitude for a candidate X <= −Δ whose
// act active hops sum σ/ch_i − X over the ratio table's last act
// entries, whose sum is ptot − preB.
func lowTotal(x, ptot, preB float64, act int) (t, mag float64) {
	fa := float64(act)
	return x + ((ptot - preB) - fa*x), ptot + (fa+1)*x
}

// fifoTotal returns T̃ₖ and its magnitude for a candidate X > −Δ whose
// act active hops sum num/ch_i − X over the last act hops, whose
// reciprocal rates sum to invTot − invB.
func fifoTotal(x, num, invTot, invB float64, act int) (t, mag float64) {
	fa := float64(act)
	return x + (num*(invTot-invB) - fa*x), num*invTot + (fa+1)*x
}

// screenLow prices the candidates of the Δ <= 0 regimes (strict
// priority included) into the screen's lower bounds and returns the
// least upper bound. X = −Δ, repeated once per hop, is priced once up
// front. X = σ/ch_i and X = (σ+βΔ)/(ch_i−β) have their boundary at or
// next to their hint i, which lowRun finds without a call; a boundary
// farther out (long plateaus of equal ch_i, σ = 0) is searched by
// firstHop here.
func (s *Scratch) screenLow(h int, beta, delta, sigma float64) float64 {
	cands, hints := s.cands, s.hints
	pre, lo := s.sums[:h+1], s.sums[2*(h+1):2*(h+1)+len(cands)]
	ptot := pre[h]
	ecoef := screenCoef(h)
	md := -delta // +Inf under strict priority
	minHi, mdLo := math.Inf(1), math.NaN()
	if !math.IsInf(md, 1) { // every hop appended X = −Δ
		b := s.firstHop(hopAbove, 0, h, md, 0)
		t, mag := lowTotal(md, ptot, pre[b], h-b)
		minHi = screenBound(&mdLo, t, ecoef*mag, minHi)
	}
	var inv []float64 // built for the first X > −Δ candidate
	zeroLo, zeroSet := 0.0, false
	for k := 0; ; k++ {
		if k, minHi = s.lowRun(k, h, beta, delta, sigma, minHi, mdLo, inv); k == len(cands) {
			return minHi
		}
		x := cands[k]
		if x > md && inv == nil {
			inv = s.invSums(h)
			k-- // and run on from k
			continue
		}
		var t, mag float64
		if x <= md {
			if zeroSet && x == 0 { // σ = 0 repeats X = 0
				lo[k] = zeroLo
				continue
			}
			b := s.firstHop(hopAbove, int(hints[k]), h, x, 0)
			t, mag = lowTotal(x, ptot, pre[b], h-b)
		} else {
			num := sigma + beta*(x+delta)
			b := s.firstHop(hopMaybe, int(hints[k]), h, x, num*(1+1e-15))
			t, mag = fifoTotal(x, num, inv[h], inv[b], h-b)
		}
		minHi = screenBound(&lo[k], t, ecoef*mag, minHi)
		if x == 0 {
			zeroLo, zeroSet = lo[k], true
		}
	}
}

// lowRun is screenLow's call-free loop: it prices candidates from k0 on
// while each one's boundary lies within nearSteps of its hint, and, for
// X > −Δ, 1/ch_i's sums inv are built. It returns the index of the first
// candidate it cannot price (len(s.cands) when none), with the least
// upper bound so far.
func (s *Scratch) lowRun(k0, h int, beta, delta, sigma, minHi, mdLo float64, inv []float64) (int, float64) {
	cands := s.cands
	hints, lo := s.hints[:len(cands)], s.sums[2*(h+1):2*(h+1)+len(cands)]
	pre, chs, soch := s.sums[:h+1], s.chs, s.soch
	ptot := pre[h]
	ecoef := screenCoef(h)
	md := -delta
	k := k0
	for ; k < len(cands); k++ {
		x := cands[k]
		b := int(hints[k])
		var t, mag float64
		if x <= md { // θ^i = σ/ch_i − X on the active suffix
			if x == md {
				lo[k] = mdLo
				continue
			}
			var ok bool
			if b, ok = aboveNear(soch, x, b, h); !ok {
				break
			}
			t, mag = lowTotal(x, ptot, pre[b], h-b)
		} else { // θ^i = num/ch_i − X on the active suffix
			// The sum runs from the sweep's multiply-screen boundary.
			// The sweep adds its few ambiguous hops only where the exact
			// test holds, and each term it may skip lies within
			// 1.3e-15·X of zero: inside Eₖ, whose mag exceeds act·X.
			num := sigma + beta*(x+delta)
			var ok bool
			if b, ok = maybeNear(chs, x, num*(1+1e-15), b, h); !ok || inv == nil {
				break
			}
			t, mag = fifoTotal(x, num, inv[h], inv[b], h-b)
		}
		minHi = screenBound(&lo[k], t, ecoef*mag, minHi)
	}
	return k, minHi
}

// highTotal returns T̃ₖ and its magnitude for a candidate of the Δ > 0
// regimes with inactive hops [0, b), linear hops [b, e) and saturated
// hops [e, h); inv holds 1/ch_i's prefix sums when e < h.
func highTotal(x, num, ptot float64, pre, inv []float64, b, e, h int) (t, mag float64) {
	t = x + (pre[e] - pre[b]) - float64(e-b)*x
	mag = ptot + float64(h-b+1)*x
	if e < h {
		t += num*(inv[h]-inv[e]) - float64(h-e)*x
		mag += num * inv[h]
	}
	return t, mag
}

// screenHigh prices the candidates of the Δ > 0 regimes (BMUX
// included) into the screen's lower bounds and returns the least upper
// bound. A candidate's hops split into an inactive prefix [0, b), linear
// hops [b, e) and a saturated suffix [e, h). X = σ/(ch_i−β) has b next
// to its hint i and e farther right; X = σ/(ch_i−β) − Δ has e next to i
// and b farther left. Both kinds rise with i, and so do their far
// boundaries, so each kind starts its far boundary at the previous
// one's. highRun finds boundaries within nearSteps of their start
// without a call; farther ones are searched by firstHop here.
func (s *Scratch) screenHigh(h int, beta, delta, sigma float64) float64 {
	cands, hints := s.cands, s.hints
	pre, lo := s.sums[:h+1], s.sums[2*(h+1):2*(h+1)+len(cands)]
	socmb := s.socmb
	ptot := pre[h]
	ecoef := screenCoef(h)
	finite := !math.IsInf(delta, 1)
	minHi := math.Inf(1)
	var inv []float64 // 1/ch_i's sums, read by saturated hops
	if finite {
		inv = s.invSums(h)
	}
	var last [2]int // the last far boundary of each kind: e, then b
	zeroLo, zeroSet := 0.0, false
	for k := 0; ; k++ {
		if k, minHi = s.highRun(k, h, beta, delta, sigma, minHi, inv, &last); k == len(cands) {
			return minHi
		}
		x := cands[k]
		if zeroSet && x == 0 { // σ = 0 repeats X = 0
			lo[k] = zeroLo
			continue
		}
		i := int(hints[k])
		b := s.firstHop(hopActive, i, h, x, sigma)
		e := h
		if b < h && finite {
			e = s.firstHop(hopSat, max(i, b), h, x, delta)
		}
		if x == socmb[i] { // X = σ/(ch_i−β)
			last[0] = e
		} else { // X = σ/(ch_i−β) − Δ, or X = 0
			last[1] = b
		}
		e = max(e, b)
		num := 0.0
		if e < h {
			num = sigma + beta*(x+delta)
		}
		t, mag := highTotal(x, num, ptot, pre, inv, b, e, h)
		minHi = screenBound(&lo[k], t, ecoef*mag, minHi)
		if x == 0 {
			zeroLo, zeroSet = lo[k], true
		}
	}
}

// highRun is screenHigh's call-free loop, as lowRun is screenLow's;
// last carries each kind's last far boundary in and out.
func (s *Scratch) highRun(k0, h int, beta, delta, sigma, minHi float64, inv []float64, last *[2]int) (int, float64) {
	cands := s.cands
	hints, lo := s.hints[:len(cands)], s.sums[2*(h+1):2*(h+1)+len(cands)]
	pre, chmb, socmb := s.sums[:h+1], s.chmb, s.socmb
	ptot := pre[h]
	ecoef := screenCoef(h)
	finite := !math.IsInf(delta, 1)
	eLast, bLast := last[0], last[1]
	k := k0
	for ; k < len(cands); k++ {
		x := cands[k]
		i := int(hints[k])
		b, e := i, i
		first := x == socmb[i] // X = σ/(ch_i−β)
		if first {
			e = min(eLast, h-1)
		} else {
			b = min(bLast, h-1)
		}
		var ok bool
		if b, ok = activeNear(chmb, x, sigma, b, h); !ok {
			break
		}
		if b == h || !finite {
			e = h
		} else if e, ok = satNear(socmb, x, delta, e, h); !ok {
			break
		}
		if first {
			eLast = e
		} else {
			bLast = b
		}
		e = max(e, b)
		num := 0.0
		if e < h {
			num = sigma + beta*(x+delta)
		}
		t, mag := highTotal(x, num, ptot, pre, inv, b, e, h)
		minHi = screenBound(&lo[k], t, ecoef*mag, minHi)
	}
	last[0], last[1] = eLast, bLast
	return k, minHi
}

// nearSteps bounds the call-free boundary walks of lowRun and highRun:
// a boundary farther from its start is left to firstHop.
const nearSteps = 8

// aboveNear, maybeNear, activeNear and satNear are those walks, one per
// hop predicate (hopAbove; hopMaybe, hopActive and hopSat with y = numHi,
// σ and Δ): each returns the first hop in [0, h) at which its predicate
// holds (h if none) and true when that hop lies within nearSteps of
// start j, and false otherwise. They are small enough to inline, so the
// loops that use them make no call.
func aboveNear(soch []float64, x float64, j, h int) (int, bool) {
	if soch[j]-x > 0 {
		for n := 0; j > 0 && soch[j-1]-x > 0; n++ {
			if n == nearSteps {
				return j, false
			}
			j--
		}
		return j, true
	}
	for n := 0; n < nearSteps; n++ {
		if j++; j == h || soch[j]-x > 0 {
			return j, true
		}
	}
	return j, false
}

func maybeNear(chs []float64, x, numHi float64, j, h int) (int, bool) {
	if !(x*chs[j] >= numHi) {
		for n := 0; j > 0 && !(x*chs[j-1] >= numHi); n++ {
			if n == nearSteps {
				return j, false
			}
			j--
		}
		return j, true
	}
	for n := 0; n < nearSteps; n++ {
		if j++; j == h || !(x*chs[j] >= numHi) {
			return j, true
		}
	}
	return j, false
}

func activeNear(chmb []float64, x, sigma float64, j, h int) (int, bool) {
	if !(chmb[j]*x >= sigma) {
		for n := 0; j > 0 && !(chmb[j-1]*x >= sigma); n++ {
			if n == nearSteps {
				return j, false
			}
			j--
		}
		return j, true
	}
	for n := 0; n < nearSteps; n++ {
		if j++; j == h || !(chmb[j]*x >= sigma) {
			return j, true
		}
	}
	return j, false
}

func satNear(socmb []float64, x, delta float64, j, h int) (int, bool) {
	if socmb[j]-x > delta {
		for n := 0; j > 0 && socmb[j-1]-x > delta; n++ {
			if n == nearSteps {
				return j, false
			}
			j--
		}
		return j, true
	}
	for n := 0; n < nearSteps; n++ {
		if j++; j == h || socmb[j]-x > delta {
			return j, true
		}
	}
	return j, false
}

// The monotone hop predicates of the sweep, as firstHop evaluates them:
// each is false on a prefix of hops and true on the suffix after it
// (DESIGN.md §16, "Hop hints").
const (
	hopAbove  = iota // σ/ch_i − X > 0: active under SP and for X <= −Δ
	hopMaybe         // ¬(X·ch_i >= y): not screened out for Δ <= 0, X > −Δ (y = num·(1+1e-15))
	hopActive        // ¬((ch_i−β)·X >= σ) with σ = y: active for Δ > 0
	hopSat           // σ/(ch_i−β) − X > Δ with Δ = y: saturated for Δ > 0
)

// firstHop returns the first hop in [0, h) at which predicate kind holds
// at X = x (h if none), galloping out from hop i0 in steps 1, 2, 4, ...
// and then bisecting, so a boundary j hops from the hint costs
// O(log j) evaluations and one next to it costs two.
func (s *Scratch) firstHop(kind, i0, h int, x, y float64) int {
	at := func(i int) bool {
		switch kind {
		case hopAbove:
			return s.soch[i]-x > 0
		case hopMaybe:
			return !(x*s.chs[i] >= y)
		case hopActive:
			return !(s.chmb[i]*x >= y)
		default:
			return s.socmb[i]-x > y
		}
	}
	lo, hi := 0, h // the boundary lies in [lo, hi]
	if at(i0) {
		hi = i0
		for step := 1; ; step *= 2 {
			j := hi - step
			if j < 0 {
				break
			}
			if !at(j) {
				lo = j + 1
				break
			}
			hi = j
		}
	} else {
		lo = i0 + 1
		for step := 1; ; step *= 2 {
			j := lo - 1 + step
			if j >= h {
				break
			}
			if at(j) {
				hi = j
				break
			}
			lo = j + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if at(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
