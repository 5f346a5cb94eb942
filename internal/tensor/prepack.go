package tensor

import "fmt"

// Pre-packed im2col entry points for the MBS executor's double-buffered
// sub-batch pipeline: while the GEMMs of sub-batch b run, a packer goroutine
// lowers sub-batch b+1's input into a second col arena with Im2ColPack, and
// the next forward then consumes that packing via Conv2DFromColInto without
// touching the input tensor again. Both functions are exact factorings of
// Conv2DFusedColInto's two halves (im2colSample + gemmFused per sample), so
// pack-then-consume is bit-identical to the fused single-pass call for any
// thread count.

// colLen returns the im2col buffer length for n samples of x under s.
func colLen(n int, s ConvSpec, oh, ow int) int {
	return n * s.InC * s.KH * s.KW * oh * ow
}

// Im2ColPack lowers every sample of x into col (length n*K*M, K =
// InC*KH*KW, M = OH*OW — the layout Conv2DFusedColInto retains). It runs on
// the calling goroutine only: the pipeline overlaps packing with compute by
// goroutine placement, not by splitting the packing itself.
func Im2ColPack(col []float64, x *Tensor, s ConvSpec) {
	n := x.Shape[0]
	oh, ow := s.OutDims(x.Shape[2], x.Shape[3])
	if want := colLen(n, s, oh, ow); len(col) != want {
		panic(fmt.Sprintf("tensor: im2col pack buffer %d, want %d", len(col), want))
	}
	k := s.InC * s.KH * s.KW
	m := oh * ow
	for ni := 0; ni < n; ni++ {
		im2colSample(col[ni*k*m:(ni+1)*k*m], x, ni, s, oh, ow)
	}
}

// Conv2DFromColInto computes out = act(W*col + bias) from a pre-packed
// im2col buffer (Im2ColPack's layout), skipping the lowering of x entirely.
// out supplies the batch and spatial dimensions. bias may be nil. Samples
// parallelize across Threads() goroutines exactly like Conv2DFusedColInto
// and results are bit-identical to it.
func Conv2DFromColInto(out *Tensor, col []float64, weight, bias *Tensor, s ConvSpec, relu bool) {
	n, oh, ow := out.Shape[0], out.Shape[2], out.Shape[3]
	if out.Shape[1] != s.OutC {
		panic(fmt.Sprintf("tensor: prepacked conv out shape %v, want OutC %d", out.Shape, s.OutC))
	}
	if want := colLen(n, s, oh, ow); len(col) != want {
		panic(fmt.Sprintf("tensor: prepacked conv col buffer %d, want %d", len(col), want))
	}
	var bs []float64
	if bias != nil {
		bs = bias.Data
	}
	j := convFromColJob{out: out.Data, col: col, weight: weight.Data, bias: bs,
		outC: s.OutC, k: s.InC * s.KH * s.KW, m: oh * ow, relu: relu}
	if Threads() <= 1 || n == 1 {
		j.run(0, n)
		return
	}
	runPooled(n, &convFromColJobs, j)
}

// convFromColJob computes samples [lo,hi) of out = act(W*col + bias) from
// the prepacked im2col panels.
type convFromColJob struct {
	out, col, weight, bias []float64
	outC, k, m             int
	relu                   bool
}

var convFromColJobs jobPool[convFromColJob]

func (j *convFromColJob) run(lo, hi int) {
	km, om := j.k*j.m, j.outC*j.m
	for ni := lo; ni < hi; ni++ {
		gemmFused(j.outC, j.k, j.m, j.weight, j.k, j.col[ni*km:(ni+1)*km], j.m, j.out[ni*om:(ni+1)*om], j.m, j.bias, nil, j.relu)
	}
}
