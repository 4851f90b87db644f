package kernel

import "repro/internal/sparse"

// The compact-layout row kernels. Each mirrors its wide counterpart in
// kernel.go operation for operation — identical summation order, so the
// two layouts are bitwise interchangeable — but reads the CSR through
// the int32 index stream (half the index bytes per traversal), hoists
// the Engine fields the loop touches into locals (stores through the
// belief buffers keep the compiler from proving the struct unchanged,
// so the method-style wide kernels reload them every row), and reads
// the k×k coupling coefficients by constant index in the row epilogue
// instead of holding k² locals across the loop — Go's register
// allocator spills that many long-lived floats straight through the
// sparse inner loop, which costs more than the per-row reloads.

// rows1Compact is the k = 1 scalar collapse (FABP, Appendix E). Unlike
// the wide path, the compact fast paths honor the round-2 activity map
// (act != nil only in the round after the Bˆ¹ = Eˆ shortcut): skipping
// neighbors whose belief rows are exactly zero drops only v·0 terms, so
// the result stays bitwise identical while the mostly-dead round-2
// loads disappear. The act == nil branch keeps the dense rounds on the
// unchecked loop.
//
//lsbp:hotpath
func (e *Engine) rows1Compact(blk *sparse.Block, off, lo, hi int) float64 {
	rowPtr, colIdx, avals := blk.RowPtr[lo-off:hi-off+1], blk.Col, blk.Val
	cur, next := e.ws.cur, e.ws.next
	eexp, dvec, echo, track, act := e.e, blk.Deg, e.echo, e.track, e.act
	// Index the block's own rows from zero: one induction variable
	// for the row-local streams, the global state only for neighbors.
	own, next := cur[lo:hi], next[lo:hi]
	if eexp != nil {
		eexp = eexp[lo:hi]
	}
	if echo {
		dvec = dvec[lo-off : hi-off]
	}
	h, h2 := e.h[0], e.h2[0]
	var delta float64
	for i := 0; i < hi-lo; i++ {
		rs, re := int(rowPtr[i]), int(rowPtr[i+1])
		cols := colIdx[rs:re]
		vals := avals[rs:re]
		vals = vals[:len(cols)]
		var ab float64
		if act == nil {
			for p, j := range cols {
				ab += vals[p] * cur[j]
			}
		} else {
			for p, jj := range cols {
				j := int(jj)
				if act[j] == 0 {
					continue // neighbor's belief row is exactly zero
				}
				ab += vals[p] * cur[j]
			}
		}
		var v float64
		if eexp != nil {
			v = eexp[i]
		}
		v += ab * h
		if echo {
			v -= dvec[i] * own[i] * h2
		}
		if track {
			delta = delta1(delta, v, own[i])
		}
		next[i] = v
	}
	return delta
}

//lsbp:hotpath
func (e *Engine) rows2Compact(blk *sparse.Block, off, lo, hi int) float64 {
	rowPtr, colIdx, avals := blk.RowPtr[lo-off:hi-off+1], blk.Col, blk.Val
	cur, next := e.ws.cur, e.ws.next
	eexp, dvec, echo, track, act := e.e, blk.Deg, e.echo, e.track, e.act
	// Index the block's own rows from zero: one induction variable
	// for the row-local streams, the global state only for neighbors.
	own, next := cur[lo*2:hi*2], next[lo*2:hi*2]
	if eexp != nil {
		eexp = eexp[lo*2 : hi*2]
	}
	if echo {
		dvec = dvec[lo-off : hi-off]
	}
	h, g := e.h[:4], e.h2[:4]
	var delta float64
	for i := 0; i < hi-lo; i++ {
		rs, re := int(rowPtr[i]), int(rowPtr[i+1])
		cols := colIdx[rs:re]
		vals := avals[rs:re]
		vals = vals[:len(cols)]
		var ab0, ab1 float64
		if act == nil {
			for p, jj := range cols {
				o := int(jj) * 2
				v := vals[p]
				ab0 += v * cur[o]
				ab1 += v * cur[o+1]
			}
		} else {
			for p, jj := range cols {
				j := int(jj)
				if act[j] == 0 {
					continue // neighbor's belief row is exactly zero
				}
				o := j * 2
				v := vals[p]
				ab0 += v * cur[o]
				ab1 += v * cur[o+1]
			}
		}
		var v0, v1 float64
		if eexp != nil {
			v0, v1 = eexp[i*2], eexp[i*2+1]
		}
		v0 += ab0*h[0] + ab1*h[2]
		v1 += ab0*h[1] + ab1*h[3]
		b0, b1 := own[i*2], own[i*2+1]
		if echo {
			di := dvec[i]
			v0 -= di * (b0*g[0] + b1*g[2])
			v1 -= di * (b0*g[1] + b1*g[3])
		}
		if track {
			delta = delta1(delta, v0, b0)
			delta = delta1(delta, v1, b1)
		}
		next[i*2], next[i*2+1] = v0, v1
	}
	return delta
}

//lsbp:hotpath
func (e *Engine) rows3Compact(blk *sparse.Block, off, lo, hi int) float64 {
	rowPtr, colIdx, avals := blk.RowPtr[lo-off:hi-off+1], blk.Col, blk.Val
	cur, next := e.ws.cur, e.ws.next
	eexp, dvec, echo, track, act := e.e, blk.Deg, e.echo, e.track, e.act
	// Index the block's own rows from zero: one induction variable
	// for the row-local streams, the global state only for neighbors.
	own, next := cur[lo*3:hi*3], next[lo*3:hi*3]
	if eexp != nil {
		eexp = eexp[lo*3 : hi*3]
	}
	if echo {
		dvec = dvec[lo-off : hi-off]
	}
	h, g := e.h[:9], e.h2[:9]
	var delta float64
	for i := 0; i < hi-lo; i++ {
		rs, re := int(rowPtr[i]), int(rowPtr[i+1])
		cols := colIdx[rs:re]
		vals := avals[rs:re]
		vals = vals[:len(cols)]
		var ab0, ab1, ab2 float64
		if act == nil {
			for p, jj := range cols {
				o := int(jj) * 3
				v := vals[p]
				ab0 += v * cur[o]
				ab1 += v * cur[o+1]
				ab2 += v * cur[o+2]
			}
		} else {
			for p, jj := range cols {
				j := int(jj)
				if act[j] == 0 {
					continue // neighbor's belief row is exactly zero
				}
				o := j * 3
				v := vals[p]
				ab0 += v * cur[o]
				ab1 += v * cur[o+1]
				ab2 += v * cur[o+2]
			}
		}
		var v0, v1, v2 float64
		if eexp != nil {
			v0, v1, v2 = eexp[i*3], eexp[i*3+1], eexp[i*3+2]
		}
		v0 += ab0*h[0] + ab1*h[3] + ab2*h[6]
		v1 += ab0*h[1] + ab1*h[4] + ab2*h[7]
		v2 += ab0*h[2] + ab1*h[5] + ab2*h[8]
		b0, b1, b2 := own[i*3], own[i*3+1], own[i*3+2]
		if echo {
			di := dvec[i]
			v0 -= di * (b0*g[0] + b1*g[3] + b2*g[6])
			v1 -= di * (b0*g[1] + b1*g[4] + b2*g[7])
			v2 -= di * (b0*g[2] + b1*g[5] + b2*g[8])
		}
		if track {
			delta = delta1(delta, v0, b0)
			delta = delta1(delta, v1, b1)
			delta = delta1(delta, v2, b2)
		}
		next[i*3], next[i*3+1], next[i*3+2] = v0, v1, v2
	}
	return delta
}

//lsbp:hotpath
func (e *Engine) rows5Compact(blk *sparse.Block, off, lo, hi int) float64 {
	rowPtr, colIdx, avals := blk.RowPtr[lo-off:hi-off+1], blk.Col, blk.Val
	cur, next := e.ws.cur, e.ws.next
	eexp, dvec, echo, track, act := e.e, blk.Deg, e.echo, e.track, e.act
	// Index the block's own rows from zero: one induction variable
	// for the row-local streams, the global state only for neighbors.
	own, next := cur[lo*5:hi*5], next[lo*5:hi*5]
	if eexp != nil {
		eexp = eexp[lo*5 : hi*5]
	}
	if echo {
		dvec = dvec[lo-off : hi-off]
	}
	h, g := e.h[:25], e.h2[:25]
	var delta float64
	for i := 0; i < hi-lo; i++ {
		rs, re := int(rowPtr[i]), int(rowPtr[i+1])
		cols := colIdx[rs:re]
		vals := avals[rs:re]
		vals = vals[:len(cols)]
		var ab0, ab1, ab2, ab3, ab4 float64
		if act == nil {
			for p, jj := range cols {
				o := int(jj) * 5
				v := vals[p]
				ab0 += v * cur[o]
				ab1 += v * cur[o+1]
				ab2 += v * cur[o+2]
				ab3 += v * cur[o+3]
				ab4 += v * cur[o+4]
			}
		} else {
			for p, jj := range cols {
				j := int(jj)
				if act[j] == 0 {
					continue // neighbor's belief row is exactly zero
				}
				o := j * 5
				v := vals[p]
				ab0 += v * cur[o]
				ab1 += v * cur[o+1]
				ab2 += v * cur[o+2]
				ab3 += v * cur[o+3]
				ab4 += v * cur[o+4]
			}
		}
		var v0, v1, v2, v3, v4 float64
		if eexp != nil {
			o := i * 5
			v0, v1, v2, v3, v4 = eexp[o], eexp[o+1], eexp[o+2], eexp[o+3], eexp[o+4]
		}
		v0 += ab0*h[0] + ab1*h[5] + ab2*h[10] + ab3*h[15] + ab4*h[20]
		v1 += ab0*h[1] + ab1*h[6] + ab2*h[11] + ab3*h[16] + ab4*h[21]
		v2 += ab0*h[2] + ab1*h[7] + ab2*h[12] + ab3*h[17] + ab4*h[22]
		v3 += ab0*h[3] + ab1*h[8] + ab2*h[13] + ab3*h[18] + ab4*h[23]
		v4 += ab0*h[4] + ab1*h[9] + ab2*h[14] + ab3*h[19] + ab4*h[24]
		b := own[i*5 : i*5+5]
		if echo {
			di := dvec[i]
			v0 -= di * (b[0]*g[0] + b[1]*g[5] + b[2]*g[10] + b[3]*g[15] + b[4]*g[20])
			v1 -= di * (b[0]*g[1] + b[1]*g[6] + b[2]*g[11] + b[3]*g[16] + b[4]*g[21])
			v2 -= di * (b[0]*g[2] + b[1]*g[7] + b[2]*g[12] + b[3]*g[17] + b[4]*g[22])
			v3 -= di * (b[0]*g[3] + b[1]*g[8] + b[2]*g[13] + b[3]*g[18] + b[4]*g[23])
			v4 -= di * (b[0]*g[4] + b[1]*g[9] + b[2]*g[14] + b[3]*g[19] + b[4]*g[24])
		}
		if track {
			delta = delta1(delta, v0, b[0])
			delta = delta1(delta, v1, b[1])
			delta = delta1(delta, v2, b[2])
			delta = delta1(delta, v3, b[3])
			delta = delta1(delta, v4, b[4])
		}
		nx := next[i*5 : i*5+5]
		nx[0], nx[1], nx[2], nx[3], nx[4] = v0, v1, v2, v3, v4
	}
	return delta
}

// rows3x4Compact fuses four k=3 solves (width 12) over the compact
// index stream; see rows3x4 for the register-blocking rationale.
//
//lsbp:hotpath
func (e *Engine) rows3x4Compact(blk *sparse.Block, off, lo, hi int) float64 {
	rowPtr, colIdx, avals := blk.RowPtr[lo-off:hi-off+1], blk.Col, blk.Val
	cur, next := e.ws.cur, e.ws.next
	eexp, dvec, echo, track, act := e.e, blk.Deg, e.echo, e.track, e.act
	// Index the block's own rows from zero: one induction variable
	// for the row-local streams, the global state only for neighbors.
	own, next := cur[lo*12:hi*12], next[lo*12:hi*12]
	if eexp != nil {
		eexp = eexp[lo*12 : hi*12]
	}
	if echo {
		dvec = dvec[lo-off : hi-off]
	}
	h, g := e.h[:9], e.h2[:9]
	var delta float64
	for i := 0; i < hi-lo; i++ {
		rs, re := int(rowPtr[i]), int(rowPtr[i+1])
		cols := colIdx[rs:re]
		vals := avals[rs:re]
		vals = vals[:len(cols)]
		var a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 float64
		for p, jj := range cols {
			j := int(jj)
			if act != nil && act[j] == 0 {
				continue // neighbor's belief row is exactly zero
			}
			v := vals[p]
			x := cur[j*12 : j*12+12]
			a0 += v * x[0]
			a1 += v * x[1]
			a2 += v * x[2]
			a3 += v * x[3]
			a4 += v * x[4]
			a5 += v * x[5]
			a6 += v * x[6]
			a7 += v * x[7]
			a8 += v * x[8]
			a9 += v * x[9]
			a10 += v * x[10]
			a11 += v * x[11]
		}
		b := own[i*12 : i*12+12]
		nx := next[i*12 : i*12+12]
		var e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11 float64
		if eexp != nil {
			er := eexp[i*12 : i*12+12]
			e0, e1, e2, e3, e4, e5 = er[0], er[1], er[2], er[3], er[4], er[5]
			e6, e7, e8, e9, e10, e11 = er[6], er[7], er[8], er[9], er[10], er[11]
		}
		v0 := e0 + (a0*h[0] + a1*h[3] + a2*h[6])
		v1 := e1 + (a0*h[1] + a1*h[4] + a2*h[7])
		v2 := e2 + (a0*h[2] + a1*h[5] + a2*h[8])
		v3 := e3 + (a3*h[0] + a4*h[3] + a5*h[6])
		v4 := e4 + (a3*h[1] + a4*h[4] + a5*h[7])
		v5 := e5 + (a3*h[2] + a4*h[5] + a5*h[8])
		v6 := e6 + (a6*h[0] + a7*h[3] + a8*h[6])
		v7 := e7 + (a6*h[1] + a7*h[4] + a8*h[7])
		v8 := e8 + (a6*h[2] + a7*h[5] + a8*h[8])
		v9 := e9 + (a9*h[0] + a10*h[3] + a11*h[6])
		v10 := e10 + (a9*h[1] + a10*h[4] + a11*h[7])
		v11 := e11 + (a9*h[2] + a10*h[5] + a11*h[8])
		if echo {
			di := dvec[i]
			v0 -= di * (b[0]*g[0] + b[1]*g[3] + b[2]*g[6])
			v1 -= di * (b[0]*g[1] + b[1]*g[4] + b[2]*g[7])
			v2 -= di * (b[0]*g[2] + b[1]*g[5] + b[2]*g[8])
			v3 -= di * (b[3]*g[0] + b[4]*g[3] + b[5]*g[6])
			v4 -= di * (b[3]*g[1] + b[4]*g[4] + b[5]*g[7])
			v5 -= di * (b[3]*g[2] + b[4]*g[5] + b[5]*g[8])
			v6 -= di * (b[6]*g[0] + b[7]*g[3] + b[8]*g[6])
			v7 -= di * (b[6]*g[1] + b[7]*g[4] + b[8]*g[7])
			v8 -= di * (b[6]*g[2] + b[7]*g[5] + b[8]*g[8])
			v9 -= di * (b[9]*g[0] + b[10]*g[3] + b[11]*g[6])
			v10 -= di * (b[9]*g[1] + b[10]*g[4] + b[11]*g[7])
			v11 -= di * (b[9]*g[2] + b[10]*g[5] + b[11]*g[8])
		}
		if track {
			delta = delta1(delta, v0, b[0])
			delta = delta1(delta, v1, b[1])
			delta = delta1(delta, v2, b[2])
			delta = delta1(delta, v3, b[3])
			delta = delta1(delta, v4, b[4])
			delta = delta1(delta, v5, b[5])
			delta = delta1(delta, v6, b[6])
			delta = delta1(delta, v7, b[7])
			delta = delta1(delta, v8, b[8])
			delta = delta1(delta, v9, b[9])
			delta = delta1(delta, v10, b[10])
			delta = delta1(delta, v11, b[11])
		}
		nx[0], nx[1], nx[2], nx[3], nx[4], nx[5] = v0, v1, v2, v3, v4, v5
		nx[6], nx[7], nx[8], nx[9], nx[10], nx[11] = v6, v7, v8, v9, v10, v11
	}
	return delta
}

// rows2x6Compact fuses six k=2 solves (width 12) over the compact index
// stream, the k=2 analogue of rows3x4Compact.
//
//lsbp:hotpath
func (e *Engine) rows2x6Compact(blk *sparse.Block, off, lo, hi int) float64 {
	rowPtr, colIdx, avals := blk.RowPtr[lo-off:hi-off+1], blk.Col, blk.Val
	cur, next := e.ws.cur, e.ws.next
	eexp, dvec, echo, track, act := e.e, blk.Deg, e.echo, e.track, e.act
	// Index the block's own rows from zero: one induction variable
	// for the row-local streams, the global state only for neighbors.
	own, next := cur[lo*12:hi*12], next[lo*12:hi*12]
	if eexp != nil {
		eexp = eexp[lo*12 : hi*12]
	}
	if echo {
		dvec = dvec[lo-off : hi-off]
	}
	h, g := e.h[:4], e.h2[:4]
	var delta float64
	for i := 0; i < hi-lo; i++ {
		rs, re := int(rowPtr[i]), int(rowPtr[i+1])
		cols := colIdx[rs:re]
		vals := avals[rs:re]
		vals = vals[:len(cols)]
		var a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 float64
		for p, jj := range cols {
			j := int(jj)
			if act != nil && act[j] == 0 {
				continue // neighbor's belief row is exactly zero
			}
			v := vals[p]
			x := cur[j*12 : j*12+12]
			a0 += v * x[0]
			a1 += v * x[1]
			a2 += v * x[2]
			a3 += v * x[3]
			a4 += v * x[4]
			a5 += v * x[5]
			a6 += v * x[6]
			a7 += v * x[7]
			a8 += v * x[8]
			a9 += v * x[9]
			a10 += v * x[10]
			a11 += v * x[11]
		}
		b := own[i*12 : i*12+12]
		nx := next[i*12 : i*12+12]
		var e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11 float64
		if eexp != nil {
			er := eexp[i*12 : i*12+12]
			e0, e1, e2, e3, e4, e5 = er[0], er[1], er[2], er[3], er[4], er[5]
			e6, e7, e8, e9, e10, e11 = er[6], er[7], er[8], er[9], er[10], er[11]
		}
		v0 := e0 + (a0*h[0] + a1*h[2])
		v1 := e1 + (a0*h[1] + a1*h[3])
		v2 := e2 + (a2*h[0] + a3*h[2])
		v3 := e3 + (a2*h[1] + a3*h[3])
		v4 := e4 + (a4*h[0] + a5*h[2])
		v5 := e5 + (a4*h[1] + a5*h[3])
		v6 := e6 + (a6*h[0] + a7*h[2])
		v7 := e7 + (a6*h[1] + a7*h[3])
		v8 := e8 + (a8*h[0] + a9*h[2])
		v9 := e9 + (a8*h[1] + a9*h[3])
		v10 := e10 + (a10*h[0] + a11*h[2])
		v11 := e11 + (a10*h[1] + a11*h[3])
		if echo {
			di := dvec[i]
			v0 -= di * (b[0]*g[0] + b[1]*g[2])
			v1 -= di * (b[0]*g[1] + b[1]*g[3])
			v2 -= di * (b[2]*g[0] + b[3]*g[2])
			v3 -= di * (b[2]*g[1] + b[3]*g[3])
			v4 -= di * (b[4]*g[0] + b[5]*g[2])
			v5 -= di * (b[4]*g[1] + b[5]*g[3])
			v6 -= di * (b[6]*g[0] + b[7]*g[2])
			v7 -= di * (b[6]*g[1] + b[7]*g[3])
			v8 -= di * (b[8]*g[0] + b[9]*g[2])
			v9 -= di * (b[8]*g[1] + b[9]*g[3])
			v10 -= di * (b[10]*g[0] + b[11]*g[2])
			v11 -= di * (b[10]*g[1] + b[11]*g[3])
		}
		if track {
			delta = delta1(delta, v0, b[0])
			delta = delta1(delta, v1, b[1])
			delta = delta1(delta, v2, b[2])
			delta = delta1(delta, v3, b[3])
			delta = delta1(delta, v4, b[4])
			delta = delta1(delta, v5, b[5])
			delta = delta1(delta, v6, b[6])
			delta = delta1(delta, v7, b[7])
			delta = delta1(delta, v8, b[8])
			delta = delta1(delta, v9, b[9])
			delta = delta1(delta, v10, b[10])
			delta = delta1(delta, v11, b[11])
		}
		nx[0], nx[1], nx[2], nx[3], nx[4], nx[5] = v0, v1, v2, v3, v4, v5
		nx[6], nx[7], nx[8], nx[9], nx[10], nx[11] = v6, v7, v8, v9, v10, v11
	}
	return delta
}

// sparseRoundCompact executes one full round from the Bˆ = Eˆ state
// (the round after the solve-from-scratch shortcut) in push form: Eˆ
// has nonzero rows only at the explicitly labeled nodes, so instead of
// pulling every stored entry the engine zeroes the output, pushes each
// active row's beliefs through its own adjacency row (which equals its
// column — Config.SymmetricA), and runs the epilogue (coupling, echo,
// explicit term, delta) only over rows that were reached or are active
// themselves. All untouched rows provably stay zero. Per-entry
// contributions arrive in ascending source order, matching the pull
// kernels' summation order, so the iterate is bitwise identical.
//
//lsbp:hotpath
func (e *Engine) sparseRoundCompact() float64 {
	adj := e.adj
	n, k, wd := e.n, e.k, e.wd
	cur, next := e.ws.cur[:n*wd], e.ws.next[:n*wd]
	act, dirty := e.ws.act[:n], e.ws.dirty[:n]
	eexp, echo, track := e.e, e.echo, e.track
	for i := range next {
		next[i] = 0
	}
	copy(dirty, act) // active rows run the epilogue even if unreached
	// Scatter: next[i] accumulates (A·Bˆ)[i] from active sources only.
	for j := 0; j < n; j++ {
		if act[j] == 0 {
			continue
		}
		xj := cur[j*wd : j*wd+wd]
		blk := adj.Block(j >> sparse.BlockShift)
		q := j - blk.Off
		rs, re := blk.RowPtr[q], blk.RowPtr[q+1]
		cols := blk.Col[rs:re]
		vals := blk.Val[rs:re]
		vals = vals[:len(cols)]
		for p, ii := range cols {
			i := int(ii)
			v := vals[p]
			dirty[i] = 1
			xi := next[i*wd : i*wd+wd]
			for c, bc := range xj {
				xi[c] += v * bc
			}
		}
	}
	// Epilogue over reached/active rows; everything else stays zero
	// (their A·Bˆ, Eˆ, and belief rows are all exactly zero).
	var delta float64
	h, g := e.h, e.h2
	if wd == 1 {
		h, g := h[0], g[0]
		for i := 0; i < n; i++ {
			if dirty[i] == 0 {
				continue
			}
			ab := next[i]
			var v float64
			if eexp != nil {
				v = eexp[i]
			}
			v += ab * h
			if echo {
				v -= e.adj.Degree(i) * cur[i] * g
			}
			if track {
				delta = delta1(delta, v, cur[i])
			}
			next[i] = v
		}
		return delta
	}
	if k == 3 && wd == 3 {
		h, g := h[:9], g[:9]
		for i := 0; i < n; i++ {
			if dirty[i] == 0 {
				continue
			}
			o := i * 3
			ab0, ab1, ab2 := next[o], next[o+1], next[o+2]
			var v0, v1, v2 float64
			if eexp != nil {
				v0, v1, v2 = eexp[o], eexp[o+1], eexp[o+2]
			}
			v0 += ab0*h[0] + ab1*h[3] + ab2*h[6]
			v1 += ab0*h[1] + ab1*h[4] + ab2*h[7]
			v2 += ab0*h[2] + ab1*h[5] + ab2*h[8]
			b0, b1, b2 := cur[o], cur[o+1], cur[o+2]
			if echo {
				di := e.adj.Degree(i)
				v0 -= di * (b0*g[0] + b1*g[3] + b2*g[6])
				v1 -= di * (b0*g[1] + b1*g[4] + b2*g[7])
				v2 -= di * (b0*g[2] + b1*g[5] + b2*g[8])
			}
			if track {
				delta = delta1(delta, v0, b0)
				delta = delta1(delta, v1, b1)
				delta = delta1(delta, v2, b2)
			}
			next[o], next[o+1], next[o+2] = v0, v1, v2
		}
		return delta
	}
	// Generic epilogue: per k-block, identical order to rowsBlocked.
	for i := 0; i < n; i++ {
		if dirty[i] == 0 {
			continue
		}
		bRow := cur[i*wd : i*wd+wd]
		nxRow := next[i*wd : i*wd+wd]
		for b := 0; b < wd; b += k {
			bb := bRow[b : b+k]
			// The accumulated A·Bˆ block is read before it is
			// overwritten: lift it out first.
			var abb [maxSparseRoundWidth]float64
			copy(abb[:k], nxRow[b:b+k])
			ab := abb[:k]
			for c := 0; c < k; c++ {
				var v float64
				if eexp != nil {
					v = eexp[i*wd+b+c]
				}
				// Σ first, then add to the explicit term: the fast
				// paths compute v = e + (Σ ab·h), not a running sum.
				var cp float64
				for j, abv := range ab {
					cp += abv * h[j*k+c]
				}
				v += cp
				if echo {
					var s float64
					for j, bv := range bb {
						s += bv * g[j*k+c]
					}
					v -= e.adj.Degree(i) * s
				}
				if track {
					delta = delta1(delta, v, bb[c])
				}
				nxRow[b+c] = v
			}
		}
	}
	return delta
}
