package tensor

import "fmt"

// Blocked GEMM drivers. All variants work on row-major slices with explicit
// leading dimensions and sum every output element in a fixed ascending order
// over the shared dimension — so results are bit-identical no matter how
// callers partition the work across goroutines. The inner loops are the
// register-tiled micro-kernels in microkernel.go.
//
// Default blocking: one (kcBlock x ncBlock) panel of B is 1 MiB
// (256*512*8 B), sized to stay L2-resident across the whole i loop while
// rows of A and C stream past it. The live values come from KernelConfig
// (settable via SetBlocking / the autotuner); these consts are its defaults.
const (
	kcBlock = 256 // rows of B (depth) per panel
	ncBlock = 512 // columns of B per panel
)

// gemmBlocked computes C[m,n] = A[m,k] * B[k,n] (overwrite=true) or
// C += A * B (overwrite=false) by panel blocking B and dispatching each
// panel to the configured register micro-kernel. In overwrite mode the
// first depth panel stores its register accumulators directly — the same
// ascending-depth chain the old zero-init + accumulate produced, without
// the prefill pass — and later panels continue the chain from memory.
func gemmBlocked(m, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, overwrite bool) {
	cfg := kernelCfg.Load()
	if k == 0 {
		if overwrite {
			for i := 0; i < m; i++ {
				zeroFloats(c[i*ldc : i*ldc+n])
			}
		}
		return
	}
	for jj := 0; jj < n; jj += cfg.NC {
		jn := min(n-jj, cfg.NC)
		for pp := 0; pp < k; pp += cfg.KC {
			pk := min(k-pp, cfg.KC)
			runPanel(cfg.MR, m, pk, jn, a[pp:], lda, b[pp*ldb+jj:], ldb, c[jj:], ldc, !overwrite || pp > 0)
		}
	}
}

// gemmNTAcc computes C[m,n] += A[m,k] * B[n,k]^T.
// Each output element is a dot of two contiguous rows. On AVX2 hosts four
// dots run per fmaNT4 call (vectorized over k with a fixed 4-lane
// reduction — the split depends only on k, never on threads or blocking).
// The portable path is a 2x4 register tile: four B rows stay L1-resident
// across the i loop while two A rows feed eight independent scalar
// accumulator chains in ascending k order. Tiling regroups whole dots,
// never terms, so the portable path is bit-identical to the untiled loop.
func gemmNTAcc(m, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if simdOn.Load() && k > 0 {
		j := 0
		for ; j+4 <= n; j += 4 {
			for i := 0; i < m; i++ {
				fmaNT4(&a[i*lda], &b[j*ldb], ldb, k, &c[i*ldc+j])
			}
		}
		for ; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			for i := 0; i < m; i++ {
				ai := a[i*lda : i*lda+k]
				var s float64
				for p, av := range ai {
					s += av * bj[p]
				}
				c[i*ldc+j] += s
			}
		}
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[(j+0)*ldb : (j+0)*ldb+k]
		b1 := b[(j+1)*ldb : (j+1)*ldb+k]
		b2 := b[(j+2)*ldb : (j+2)*ldb+k]
		b3 := b[(j+3)*ldb : (j+3)*ldb+k]
		i := 0
		for ; i+2 <= m; i += 2 {
			a0 := a[(i+0)*lda : (i+0)*lda+k]
			a1 := a[(i+1)*lda : (i+1)*lda+k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for p, av := range a0 {
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av * bv0
				s01 += av * bv1
				s02 += av * bv2
				s03 += av * bv3
				av = a1[p]
				s10 += av * bv0
				s11 += av * bv1
				s12 += av * bv2
				s13 += av * bv3
			}
			r0 := c[(i+0)*ldc+j : (i+0)*ldc+j+4 : (i+0)*ldc+j+4]
			r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
			r0[0] += s00
			r0[1] += s01
			r0[2] += s02
			r0[3] += s03
			r1[0] += s10
			r1[1] += s11
			r1[2] += s12
			r1[3] += s13
		}
		for ; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var s0, s1, s2, s3 float64
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci := c[i*ldc+j : i*ldc+j+4]
			ci[0] += s0
			ci[1] += s1
			ci[2] += s2
			ci[3] += s3
		}
	}
	for ; j < n; j++ {
		bj := b[j*ldb : j*ldb+k]
		for i := 0; i < m; i++ {
			ai := a[i*lda : i*lda+k]
			var s float64
			for p, av := range ai {
				s += av * bj[p]
			}
			c[i*ldc+j] += s
		}
	}
}

// gemmTNAcc computes C[m,n] += A[k,m]^T * B[k,n] for the row range
// [iLo,iHi) of C. On AVX2 hosts a 4-row register tile (fmaPanelT4) loads a
// C block into accumulators first, then adds terms in ascending p — the
// identical per-element chain the term-by-term memory accumulation
// produces, held in registers. The portable path processes output rows in
// tiles of eight so a tile of C stays L1-resident across the whole (outer)
// p loop; within a tile, rows of A and B are contiguous. Restricting the i
// range lets callers partition C's rows across goroutines, and every
// element accumulates p in ascending order regardless of the tiling —
// bit-identical for any thread count.
func gemmTNAcc(iLo, iHi, k, n int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if simdOn.Load() && k > 0 && n > 0 && iLo < iHi {
		simdPanelT(iLo, iHi, k, n, a, lda, b, ldb, c, ldc)
		return
	}
	for ii := iLo; ii < iHi; ii += 8 {
		im := ii + 8
		if im > iHi {
			im = iHi
		}
		for p := 0; p < k; p++ {
			ap := a[p*lda+ii : p*lda+im]
			bp := b[p*ldb : p*ldb+n]
			for t, av := range ap {
				if av == 0 {
					continue
				}
				ci := c[(ii+t)*ldc : (ii+t)*ldc+n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

// matMulDims validates a 2-D matrix product and returns (m, k, n).
func matMulDims(a, b *Tensor) (int, int, int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shapes %v x %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

// MatMulInto computes dst = a[m,k] x b[k,n] into a preallocated dst[m,n],
// reusing dst's storage (zero heap allocations in steady state). Row panels
// of dst are computed in parallel across Threads() goroutines.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul dst %v for %v x %v", dst.Shape, a.Shape, b.Shape))
	}
	j := matMulJob{a: a.Data, b: b.Data, c: dst.Data, k: k, n: n}
	if Threads() <= 1 || m == 1 {
		j.run(0, m)
		return dst
	}
	runPooled(m, &matMulJobs, j)
	return dst
}

// matMulJob computes rows [lo,hi) of c = a x b (a is [m,k], b is [k,n]).
type matMulJob struct {
	a, b, c []float64
	k, n    int
}

var matMulJobs jobPool[matMulJob]

func (j *matMulJob) run(lo, hi int) {
	gemmBlocked(hi-lo, j.k, j.n, j.a[lo*j.k:], j.k, j.b, j.n, j.c[lo*j.n:], j.n, true)
}

// AddMatMulNT accumulates dst[m,n] += a[m,k] x b[n,k]^T.
func AddMatMulNT(dst, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if len(a.Shape) != 2 || len(b.Shape) != 2 || b.Shape[1] != k ||
		len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulNT shapes %v x %v^T -> %v", a.Shape, b.Shape, dst.Shape))
	}
	j := matMulNTJob{a: a.Data, b: b.Data, c: dst.Data, k: k, n: n}
	if Threads() <= 1 || m == 1 {
		j.run(0, m)
		return
	}
	runPooled(m, &matMulNTJobs, j)
}

// matMulNTJob accumulates rows [lo,hi) of c += a x b^T (a is [m,k], b is
// [n,k]).
type matMulNTJob struct {
	a, b, c []float64
	k, n    int
}

var matMulNTJobs jobPool[matMulNTJob]

func (j *matMulNTJob) run(lo, hi int) {
	gemmNTAcc(hi-lo, j.k, j.n, j.a[lo*j.k:], j.k, j.b, j.k, j.c[lo*j.n:], j.n)
}

// AddMatMulTN accumulates dst[m,n] += a[k,m]^T x b[k,n].
func AddMatMulTN(dst, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if len(a.Shape) != 2 || len(b.Shape) != 2 || b.Shape[0] != k ||
		len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTN shapes %v^T x %v -> %v", a.Shape, b.Shape, dst.Shape))
	}
	j := matMulTNJob{a: a.Data, b: b.Data, c: dst.Data, k: k, m: m, n: n}
	if Threads() <= 1 || m == 1 {
		j.run(0, m)
		return
	}
	runPooled(m, &matMulTNJobs, j)
}

// matMulTNJob accumulates rows [lo,hi) of c += a^T x b (a is [k,m], b is
// [k,n]).
type matMulTNJob struct {
	a, b, c []float64
	k, m, n int
}

var matMulTNJobs jobPool[matMulTNJob]

func (j *matMulTNJob) run(lo, hi int) {
	gemmTNAcc(lo, hi, j.k, j.n, j.a, j.m, j.b, j.n, j.c, j.n)
}
