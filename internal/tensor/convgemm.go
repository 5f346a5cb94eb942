package tensor

// GEMM-backed convolution kernels (EngineGEMM). A convolution over sample n
// lowers to
//
//	forward:   out_n[OutC, M]  = W[OutC, K] * col_n[K, M] + bias
//	weights:   dw   [OutC, K] += dy_n[OutC, M] * col_n[K, M]^T
//	data:      dx_n            = col2im(W^T[K, OutC] * dy_n[OutC, M])
//
// with K = InC*KH*KW, M = OH*OW, and col_n the im2col matrix of sample n.
// Samples are independent, so the forward and data-gradient passes
// parallelize over the batch: each worker goroutine owns a contiguous sample
// range and one pooled scratch slab. The weight and bias gradients
// parallelize over output-channel rows instead and accumulate in place, one
// sample at a time in ascending order, so no per-sample partials are held
// and the whole backward pass is deterministic for any thread count. Each
// parallel section is a small job struct: the single-threaded path runs it
// inline, and the multi-threaded path hands its chunks to the kernel worker
// pool from a pooled copy (engine.go), so steady-state training performs
// zero heap allocations at any thread count.

// im2colSample fills col[K*M] with sample ni's patch matrix: row p indexes
// (ic, ky, kx), column m indexes (oy, ox). Every cell is written (padding
// cells get 0), so col needs no pre-zeroing.
func im2colSample(col []float64, x *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := x.Shape[2], x.Shape[3]
	chw := x.Shape[1] * h * w
	im2colRaw(col, x.Data[ni*chw:(ni+1)*chw], h, w, s, oh, ow)
}

// im2colRaw is im2colSample over one sample's raw [InC*H*W] storage. A
// padded convolution lowers from a zero-padded copy of the sample
// (padSample), so every patch row is a plain strided copy with no bounds
// test per element.
func im2colRaw(col, xs []float64, h, w int, s ConvSpec, oh, ow int) {
	hp, wp := h+2*s.PadH, w+2*s.PadW
	src := xs
	if hp != h || wp != w {
		pad := getSlab(s.InC * hp * wp)
		defer pad.put()
		padSample(pad.f, xs, s.InC, h, w, s.PadH, s.PadW)
		src = pad.f
	}
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		plane := src[ic*hp*wp : (ic+1)*hp*wp]
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[p*m : (p+1)*m]
				p++
				for oy := 0; oy < oh; oy++ {
					row := dst[oy*ow : (oy+1)*ow]
					srow := plane[(oy*s.StrideH+ky)*wp+kx:]
					if s.StrideW == 1 {
						copy(row, srow)
						continue
					}
					for ox := range row {
						row[ox] = srow[ox*s.StrideW]
					}
				}
			}
		}
	}
}

// padSample writes the c planes of xs [c, h, w] into dst [c, h+2ph, w+2pw]
// with a zero border.
func padSample(dst, xs []float64, c, h, w, ph, pw int) {
	wp := w + 2*pw
	for ic := 0; ic < c; ic++ {
		plane := dst[ic*(h+2*ph)*wp : (ic+1)*(h+2*ph)*wp]
		zeroFloats(plane[:ph*wp])
		for y := 0; y < h; y++ {
			row := plane[(y+ph)*wp : (y+ph+1)*wp]
			zeroFloats(row[:pw])
			copy(row[pw:pw+w], xs[(ic*h+y)*w:(ic*h+y+1)*w])
			zeroFloats(row[pw+w:])
		}
		zeroFloats(plane[(h+ph)*wp:])
	}
}

// col2imSample writes sample ni of dx as the scatter-add of dcol[K*M]
// (same layout as im2colSample) over a zeroed region, overwriting it. A
// padded convolution scatters into a zeroed padded slab and copies its
// interior out, so no element needs a bounds test; the visit order, and so
// every element's chain of additions, is the (p, oy, ox) order of a full
// sweep either way.
func col2imSample(dcol []float64, dx *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := dx.Shape[2], dx.Shape[3]
	hp, wp := h+2*s.PadH, w+2*s.PadW
	chw := s.InC * h * w
	out := dx.Data[ni*chw : (ni+1)*chw]
	dst := out
	if hp != h || wp != w {
		pad := getSlab(s.InC * hp * wp)
		defer pad.put()
		dst = pad.f
	}
	zeroFloats(dst)
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		plane := dst[ic*hp*wp : (ic+1)*hp*wp]
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				src := dcol[p*m : (p+1)*m]
				p++
				for oy := 0; oy < oh; oy++ {
					srow := src[oy*ow : (oy+1)*ow]
					drow := plane[(oy*s.StrideH+ky)*wp+kx:]
					if s.StrideW == 1 {
						drow = drow[:len(srow)]
						for t, v := range srow {
							drow[t] += v
						}
						continue
					}
					for t, v := range srow {
						drow[t*s.StrideW] += v
					}
				}
			}
		}
	}
	if hp != h || wp != w {
		for ic := 0; ic < s.InC; ic++ {
			for y := 0; y < h; y++ {
				copy(out[(ic*h+y)*w:(ic*h+y+1)*w], dst[(ic*hp+y+s.PadH)*wp+s.PadW:])
			}
		}
	}
}

// conv2DGEMM writes the convolution of x into out (overwriting it), via the
// fused-epilogue kernel: the bias rides in the GEMM output loop instead of a
// prefill pass over the output (see fused.go).
func conv2DGEMM(out, x, weight, bias *Tensor, s ConvSpec) {
	Conv2DFusedInto(out, x, weight, bias, s, false)
}

// convDataJob overwrites the dx regions of samples [lo,hi): dcol = W^T
// [K, OutC] x dy_n [OutC, M], scattered into dx_n by col2im.
type convDataJob struct {
	dx, weight, dy *Tensor
	s              ConvSpec
	oh, ow         int
}

var convDataJobs jobPool[convDataJob]

func (j *convDataJob) run(lo, hi int) {
	s := j.s
	k := s.InC * s.KH * s.KW
	m := j.oh * j.ow
	dcol := getSlab(k * m)
	defer dcol.put()
	for ni := lo; ni < hi; ni++ {
		dyn := j.dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		zeroFloats(dcol.f)
		gemmTNAcc(0, k, s.OutC, m, j.weight.Data, k, dyn, m, dcol.f, m)
		col2imSample(dcol.f, j.dx, ni, s, j.oh, j.ow)
	}
}

// convWeightJob accumulates output-channel rows [lo,hi) of the weight and
// bias gradients straight into dw and db, one sample at a time in
// ascending order: dw[oc] += dy_n[oc] x col_n^T and db[oc] +=
// sum(dy_n[oc]). gemmNTAcc adds each finished dot to the element as one
// addend, so every element's chain is acc + d_0 + d_1 + ... — the same for
// any row partition and identical to reducing per-sample partials in
// sample order.
type convWeightJob struct {
	dw, db, dy, col []float64
	outC, k, m, n   int
}

var convWeightJobs jobPool[convWeightJob]

func (j *convWeightJob) run(lo, hi int) {
	k, m := j.k, j.m
	dw := j.dw[lo*k : hi*k]
	db := j.db[lo:hi]
	for ni := 0; ni < j.n; ni++ {
		dyn := j.dy[(ni*j.outC+lo)*m : (ni*j.outC+hi)*m]
		gemmNTAcc(hi-lo, m, k, dyn, m, j.col[ni*k*m:(ni+1)*k*m], m, dw, k)
		for r := range db {
			var sum float64
			for _, v := range dyn[r*m : (r+1)*m] {
				sum += v
			}
			db[r] += sum
		}
	}
}

// conv2DBackwardGEMM overwrites dx with the data gradient and accumulates
// (+=) the weight and bias gradients into dwAcc and dbAcc. colAll, when
// non-nil, is the forward pass's retained im2col packing (see
// Conv2DBackwardColInto); otherwise x is lowered into a pooled slab first.
// The data gradient parallelizes over samples, the weight gradient over
// output-channel rows.
func conv2DBackwardGEMM(dx, dwAcc, dbAcc, x, weight, dy *Tensor, colAll []float64, s ConvSpec) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	if colAll == nil {
		colSlab := getSlab(colLen(n, s, oh, ow))
		defer colSlab.put()
		colAll = colSlab.f
		Im2ColPack(colAll, x, s)
	}
	dj := convDataJob{dx: dx, weight: weight, dy: dy, s: s, oh: oh, ow: ow}
	wj := convWeightJob{dw: dwAcc.Data, db: dbAcc.Data, dy: dy.Data, col: colAll,
		outC: s.OutC, k: s.InC * s.KH * s.KW, m: oh * ow, n: n}
	if Threads() <= 1 {
		dj.run(0, n)
		wj.run(0, s.OutC)
		return
	}
	runPooled(n, &convDataJobs, dj)
	runPooled(s.OutC, &convWeightJobs, wj)
}
