package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity oracles for the conv lowering. The functions below are
// verbatim copies of the earlier kernels: im2col and col2im with a bounds
// test per element, and a backward pass that writes per-sample weight
// gradients into a partials slab and reduces them in ascending sample
// order. The production kernels lower through a zero-padded copy of the
// sample instead of testing bounds, and accumulate weight gradients in
// place; both are pure restructurings, so results must match the oracles
// to the last bit.

func oracleIm2colRaw(col, xs []float64, h, w int, s ConvSpec, oh, ow int) {
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := ic * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				dst := col[p*m : (p+1)*m]
				di := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH + ky - s.PadH
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					xrow := xs[base+iy*w : base+(iy+1)*w]
					ix := kx - s.PadW
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dst[di] = xrow[ix]
						} else {
							dst[di] = 0
						}
						di++
						ix += s.StrideW
					}
				}
				p++
			}
		}
	}
}

func oracleCol2imSample(dcol []float64, dx *Tensor, ni int, s ConvSpec, oh, ow int) {
	h, w := dx.Shape[2], dx.Shape[3]
	m := oh * ow
	p := 0
	for ic := 0; ic < s.InC; ic++ {
		base := (ni*dx.Shape[1] + ic) * h * w
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				src := dcol[p*m : (p+1)*m]
				si := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.StrideH + ky - s.PadH
					if iy < 0 || iy >= h {
						si += ow
						continue
					}
					dxrow := dx.Data[base+iy*w : base+(iy+1)*w]
					ix := kx - s.PadW
					for ox := 0; ox < ow; ox++ {
						if ix >= 0 && ix < w {
							dxrow[ix] += src[si]
						}
						si++
						ix += s.StrideW
					}
				}
				p++
			}
		}
	}
}

func oracleBackwardRange(dx, x, weight, dy *Tensor, dwPart, colAll []float64, s ConvSpec, oh, ow, lo, hi int) {
	h, w := x.Shape[2], x.Shape[3]
	chw := x.Shape[1] * h * w
	k := s.InC * s.KH * s.KW
	m := oh * ow
	wsize := s.OutC * k
	colBuf := make([]float64, k*m)
	dcol := make([]float64, k*m)
	for ni := lo; ni < hi; ni++ {
		col := colBuf
		if colAll != nil {
			col = colAll[ni*k*m : (ni+1)*k*m]
		} else {
			oracleIm2colRaw(col, x.Data[ni*chw:(ni+1)*chw], h, w, s, oh, ow)
		}
		dyn := dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		dwp := dwPart[ni*wsize : (ni+1)*wsize]
		zeroFloats(dwp)
		gemmNTAcc(s.OutC, m, k, dyn, m, col, m, dwp, k)
		zeroFloats(dcol)
		gemmTNAcc(0, k, s.OutC, m, weight.Data, k, dyn, m, dcol, m)
		zeroFloats(dx.Data[ni*s.InC*h*w : (ni+1)*s.InC*h*w])
		oracleCol2imSample(dcol, dx, ni, s, oh, ow)
	}
}

func oracleConvBackward(dx, dwAcc, dbAcc, x, weight, dy *Tensor, colAll []float64, s ConvSpec) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	k := s.InC * s.KH * s.KW
	m := oh * ow
	wsize := s.OutC * k
	dwPart := make([]float64, n*wsize)
	parallelFor(n, rangeFunc(func(lo, hi int) {
		oracleBackwardRange(dx, x, weight, dy, dwPart, colAll, s, oh, ow, lo, hi)
	}))
	for ni := 0; ni < n; ni++ {
		dwp := dwPart[ni*wsize : (ni+1)*wsize]
		for i, v := range dwp {
			dwAcc.Data[i] += v
		}
		dyn := dy.Data[ni*s.OutC*m : (ni+1)*s.OutC*m]
		for oc := 0; oc < s.OutC; oc++ {
			var sum float64
			for _, v := range dyn[oc*m : (oc+1)*m] {
				sum += v
			}
			dbAcc.Data[oc] += sum
		}
	}
}

// rangeFunc runs a closure as a parallel section.
type rangeFunc func(lo, hi int)

func (f rangeFunc) run(lo, hi int) { f(lo, hi) }

// oracleConvCase draws the oracle sweep's geometry: stride 1-3, pad 0-2,
// kernels 1x1, 3x3 and 5x3, non-square inputs (some so small that whole
// kernel rows or columns fall in the padding), batch 1..9.
func oracleConvCase(rng *rand.Rand) (x, w *Tensor, s ConvSpec) {
	k := [][2]int{{1, 1}, {3, 3}, {5, 3}}[rng.Intn(3)]
	s = ConvSpec{
		InC: rng.Intn(4) + 1, OutC: rng.Intn(9) + 1,
		KH: k[0], KW: k[1],
		StrideH: rng.Intn(3) + 1, StrideW: rng.Intn(3) + 1,
		PadH: rng.Intn(3), PadW: rng.Intn(3),
	}
	n := rng.Intn(9) + 1
	h := max(rng.Intn(9)+1, s.KH-2*s.PadH)
	wd := max(rng.Intn(9)+1, s.KW-2*s.PadW)
	if h == wd {
		wd++
	}
	x = New(n, s.InC, h, wd)
	x.Randn(rng, 1)
	w = New(s.OutC, s.InC, s.KH, s.KW)
	w.Randn(rng, 1)
	return x, w, s
}

// bitsEqual reports the first index where two slices differ in bits.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

// TestConvLoweringMatchesOracles pins im2col, col2im and the whole conv
// backward pass (dx, accumulated dw and db; re-lowered and retained-col
// entry points) bit-for-bit against the oracles above, for every thread
// count and SIMD setting.
func TestConvLoweringMatchesOracles(t *testing.T) {
	defer SetEngine(SetEngine(EngineGEMM))
	defer SetThreads(SetThreads(1))
	defer SetSIMD(SIMDEnabled())
	simd := []bool{false}
	if SIMDAvailable() {
		simd = append(simd, true)
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		x, w, s := oracleConvCase(rng)
		n, h, wd := x.Shape[0], x.Shape[2], x.Shape[3]
		oh, ow := s.OutDims(h, wd)
		k, m := s.InC*s.KH*s.KW, oh*ow
		dy := New(n, s.OutC, oh, ow)
		dy.Randn(rng, 1)
		dw0, db0 := New(w.Shape...), New(s.OutC)
		if trial%2 == 1 { // accumulate onto existing gradients half the time
			dw0.Randn(rng, 1)
			db0.Randn(rng, 1)
		}
		ctx := fmt.Sprintf("trial %d (%+v, in %v)", trial, s, x.Shape)

		// im2col: every cell, padding included, over a dirty buffer.
		want, got := make([]float64, colLen(n, s, oh, ow)), make([]float64, colLen(n, s, oh, ow))
		for i := range got {
			got[i] = math.NaN()
		}
		chw := s.InC * h * wd
		for ni := 0; ni < n; ni++ {
			oracleIm2colRaw(want[ni*k*m:(ni+1)*k*m], x.Data[ni*chw:(ni+1)*chw], h, wd, s, oh, ow)
		}
		Im2ColPack(got, x, s)
		if i, ok := bitsEqual(want, got); !ok {
			t.Fatalf("%s: im2col differs at %d (%g vs %g)", ctx, i, got[i], want[i])
		}

		// col2im: the oracle scatter-adds into a zeroed sample region; the
		// kernel overwrites the region, so its dx starts dirty. Other
		// samples must stay untouched.
		dcol := make([]float64, k*m)
		for i := range dcol {
			dcol[i] = rng.NormFloat64()
		}
		cw, cg := New(x.Shape...), New(x.Shape...)
		cw.Randn(rng, 1)
		copy(cg.Data, cw.Data)
		ni := rng.Intn(n)
		zeroFloats(cw.Data[ni*chw : (ni+1)*chw])
		for i := ni * chw; i < (ni+1)*chw; i++ {
			cg.Data[i] = math.NaN()
		}
		oracleCol2imSample(dcol, cw, ni, s, oh, ow)
		col2imSample(dcol, cg, ni, s, oh, ow)
		if i, ok := bitsEqual(cw.Data, cg.Data); !ok {
			t.Fatalf("%s: col2im differs at %d (%g vs %g)", ctx, i, cg.Data[i], cw.Data[i])
		}

		for _, on := range simd {
			SetSIMD(on)
			for _, threads := range []int{1, 2, 4} {
				SetThreads(threads)
				wdx, wdw, wdb := New(x.Shape...), dw0.Clone(), db0.Clone()
				oracleConvBackward(wdx, wdw, wdb, x, w, dy, nil, s)
				for _, retained := range []bool{false, true} {
					gdx, gdw, gdb := New(x.Shape...), dw0.Clone(), db0.Clone()
					if retained {
						Conv2DBackwardColInto(gdx, gdw, gdb, want, x, w, dy, s)
					} else {
						Conv2DBackwardInto(gdx, gdw, gdb, x, w, dy, s)
					}
					where := fmt.Sprintf("%s simd=%v threads=%d retained=%v", ctx, on, threads, retained)
					for _, c := range []struct {
						name      string
						want, got *Tensor
					}{{"dx", wdx, gdx}, {"dw", wdw, gdw}, {"db", wdb, gdb}} {
						if i, ok := bitsEqual(c.want.Data, c.got.Data); !ok {
							t.Fatalf("%s: %s differs at %d (%g vs %g)", where, c.name, i, c.got.Data[i], c.want.Data[i])
						}
					}
				}
			}
		}
	}
}
