package randx

// ForceDraw rewrites r's register so that its j-th next Uint64 output,
// counting from 0, is v. For j < fibLen-fibTap neither operand of draw j
// is written by an earlier draw, so the outputs before it are unchanged
// and forcings of different draws do not disturb one another.
func ForceDraw(r *Rand, j int, v uint64) {
	if j < 0 || j >= fibLen-fibTap {
		panic("randx: ForceDraw needs 0 <= j < 334")
	}
	t := (int(r.tap) - 1 - j + fibLen) % fibLen
	f := (int(r.feed) - 1 - j + fibLen) % fibLen
	r.vec[f] = int64(v) - r.vec[t]
}
