package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Grouped MBS executor: runs TrainStepMBS/AccumulateGradsMBS sub-batch-
// serially *through each planned layer group* instead of through the whole
// net, so a group's weights, im2col panels and activations stay cache-hot
// across all sub-batches (the paper's Sections 3-4 executed for real).
//
// Schedule (group-level checkpointing):
//
//	forward phase:   for g = 0..G-2, for every sub-batch span: forward the
//	                 group and stash its output rows in the full-batch
//	                 boundary buffer (the paper's one deliberate DRAM trip).
//	last group:      per span, fused forward + loss + backward — no
//	                 recompute, gradients accumulate immediately.
//	backward phase:  for g = G-2..0, per span: re-forward the group from its
//	                 boundary input (recompute restores the arena's
//	                 activations bit-exactly), then backward with the
//	                 boundary gradient stashed by group g+1.
//
// Bit-identity to the layer-by-layer path: every parameter's gradient
// receives its per-span addend in the same ascending span order, each addend
// computed from bit-identical inputs (deterministic kernels + per-sample
// GroupNorm statistics), so the accumulated sums match to the last bit.
// BatchNorm models run too (they are the negative control: sub-batch
// statistics differ from full-batch ones). The backward-phase re-forward
// freezes their running-statistics update, so each sub-batch moves the
// running statistics exactly once per step, in span order — bit-identical
// to the layer-by-layer path.
//
// All intra-group buffers live at planned offsets of one shared float slab
// sized for the largest group; per-unit input gradients collapse into two
// ping-pong slots at the slab tail (unit-parity alternation). Install is a
// per-span loop of pointer assignments — zero steady-state allocations.
//
// Double-buffered pipelining (plan.Pipeline): when a group opens with a
// plain convolution, a persistent packer goroutine lowers sub-batch b+1's
// input into a spare im2col slab while sub-batch b computes; the conv's
// forward then consumes the prepacked panels via tensor.Conv2DFromColInto
// (bit-identical to the fused single-pass call).

type mbsSpan struct{ from, to, size int }

type packReq struct {
	col  []float64
	x    *tensor.Tensor
	spec tensor.ConvSpec
}

// mbsBundle is the install list of one (group, sub-batch size): closures
// that point every layer-owned buffer at its planned arena view.
type mbsBundle struct{ installs []func() }

func (b *mbsBundle) install() {
	for _, f := range b.installs {
		f()
	}
}

type execGroup struct {
	first, last int
	sub, rem    *mbsBundle
	outElems    int // per-sample elems of the group's output
	// bns are the group's BatchNorm layers, residual branches included;
	// their running statistics are frozen while the group recomputes.
	bns []*BatchNorm2D
	// pipeline state; nil conv = no pipelining for this group
	conv           *Conv2D
	colSub, colRem int
	slabs          [2][]float64
}

type mbsExec struct {
	model *Model
	plan  *MBSPlan

	fullShape   []int
	sampleElems int
	spans       []mbsSpan

	arena  []float64
	groups []execGroup

	boundary   []*tensor.Tensor   // [b]: full-batch activations at boundary b
	boundViews [][]*tensor.Tensor // [b][span]: input views for group b+1
	dBound     [2][]float64       // boundary-gradient ping-pong slabs
	dyViews    [][]*tensor.Tensor // [b][span]: gradient views at boundary b
	xViews     []*tensor.Tensor   // [span]: group-0 views (Data set per call)

	lossGradSub, lossGradRem *tensor.Tensor

	pipe     bool
	packCh   chan packReq
	packDone chan struct{}

	// per-call state the phase closures read (single-goroutine use)
	curGroup                      int
	curLabels                     []int
	curLoss                       float64
	fnForward, fnLast, fnBackward func(si int, sp mbsSpan)
}

// groupFloats sums a group's retained arena floats and its largest transient
// (ping-pong) buffer.
func groupFloats(units []unitSpec, first, last int) (retained, maxTransient int) {
	for i := first; i <= last; i++ {
		for _, b := range units[i].bufs {
			if b.retained {
				retained += b.elems
			} else if b.elems > maxTransient {
				maxTransient = b.elems
			}
		}
	}
	return retained, maxTransient
}

// buildBundle lays the group's buffers out in the shared arena — retained
// buffers at ascending walk-order offsets, transients in the two ping-pong
// slots at the tail by unit parity — and returns the install list.
func buildBundle(units []unitSpec, first, last int, arena []float64) *mbsBundle {
	retained, maxT := groupFloats(units, first, last)
	off, tbase := 0, retained
	var installs []func()
	for i := first; i <= last; i++ {
		for _, b := range units[i].bufs {
			var sl []float64
			if b.retained {
				sl = arena[off : off+b.elems]
				off += b.elems
			} else {
				lo := tbase + (i%2)*maxT
				sl = arena[lo : lo+b.elems]
			}
			if b.shape != nil {
				f, t := b.installT, tensor.FromSlice(sl, b.shape...)
				installs = append(installs, func() { f(t) })
			} else {
				f, s := b.installS, sl
				installs = append(installs, func() { f(s) })
			}
		}
		for _, a := range units[i].aux {
			switch {
			case a.installB != nil:
				f, buf := a.installB, make([]uint8, a.elems)
				installs = append(installs, func() { f(buf) })
			case a.installI != nil:
				f, buf := a.installI, make([]int, a.elems)
				installs = append(installs, func() { f(buf) })
			default:
				f, buf := a.installF, make([]float64, a.elems)
				installs = append(installs, func() { f(buf) })
			}
		}
	}
	return &mbsBundle{installs: installs}
}

func newMBSExec(m *Model, p *MBSPlan) (*mbsExec, error) {
	n, sub := p.Batch, p.SubBatch
	unitsSub, err := m.mbsUnits(sub, p.Sample)
	if err != nil {
		return nil, err
	}
	if len(p.Groups) == 0 || p.Groups[0].First != 0 || p.Groups[len(p.Groups)-1].Last != len(unitsSub)-1 {
		return nil, fmt.Errorf("nn: mbs exec: plan does not cover the model's %d units", len(unitsSub))
	}
	for i := 1; i < len(p.Groups); i++ {
		if p.Groups[i].First != p.Groups[i-1].Last+1 {
			return nil, fmt.Errorf("nn: mbs exec: plan groups are not contiguous")
		}
	}
	head := unitsSub[len(unitsSub)-1].outShape
	if len(head) != 2 {
		return nil, fmt.Errorf("nn: mbs exec: model must end in a [N, classes] head, got %v", head)
	}
	rem := n % sub
	var unitsRem []unitSpec
	if rem != 0 {
		if unitsRem, err = m.mbsUnits(rem, p.Sample); err != nil {
			return nil, err
		}
	}

	e := &mbsExec{
		model:       m,
		plan:        p,
		fullShape:   append([]int{n}, p.Sample...),
		sampleElems: prodShape(p.Sample),
	}
	for from := 0; from < n; from += sub {
		to := from + sub
		if to > n {
			to = n
		}
		e.spans = append(e.spans, mbsSpan{from, to, to - from})
	}

	var arenaFloats int
	for _, g := range p.Groups {
		ret, maxT := groupFloats(unitsSub, g.First, g.Last)
		if f := ret + 2*maxT; f > arenaFloats {
			arenaFloats = f
		}
	}
	e.arena = make([]float64, arenaFloats)

	G := len(p.Groups)
	e.groups = make([]execGroup, G)
	e.boundary = make([]*tensor.Tensor, G-1)
	e.boundViews = make([][]*tensor.Tensor, G-1)
	var maxBoundElems int
	for gi := range p.Groups {
		g := p.Groups[gi]
		eg := &e.groups[gi]
		eg.first, eg.last = g.First, g.Last
		outSample := unitsSub[g.Last].outShape[1:]
		eg.outElems = prodShape(outSample)
		eg.sub = buildBundle(unitsSub, g.First, g.Last, e.arena)
		for _, l := range m.Net.Layers[g.First : g.Last+1] {
			eg.bns = appendBatchNorms(eg.bns, l)
		}
		if rem != 0 {
			eg.rem = buildBundle(unitsRem, g.First, g.Last, e.arena)
		}
		if p.Pipeline {
			if c := unitsSub[g.First].conv; c != nil {
				eg.conv = c
				eg.colSub = unitsSub[g.First].colElems
				if rem != 0 {
					eg.colRem = unitsRem[g.First].colElems
				}
				eg.slabs[0] = make([]float64, eg.colSub)
				eg.slabs[1] = make([]float64, eg.colSub)
				e.pipe = true
			}
		}
		if gi < G-1 {
			bt := tensor.New(append([]int{n}, outSample...)...)
			e.boundary[gi] = bt
			if bn := n * eg.outElems; bn > maxBoundElems {
				maxBoundElems = bn
			}
			views := make([]*tensor.Tensor, len(e.spans))
			for si, sp := range e.spans {
				views[si] = tensor.FromSlice(
					bt.Data[sp.from*eg.outElems:sp.to*eg.outElems],
					append([]int{sp.size}, outSample...)...)
			}
			e.boundViews[gi] = views
		}
	}
	if G > 1 {
		e.dBound[0] = make([]float64, maxBoundElems)
		e.dBound[1] = make([]float64, maxBoundElems)
		e.dyViews = make([][]*tensor.Tensor, G-1)
		for b := 0; b < G-1; b++ {
			es := e.groups[b].outElems
			sample := unitsSub[e.groups[b].last].outShape[1:]
			views := make([]*tensor.Tensor, len(e.spans))
			for si, sp := range e.spans {
				views[si] = tensor.FromSlice(
					e.dBound[b%2][sp.from*es:sp.to*es],
					append([]int{sp.size}, sample...)...)
			}
			e.dyViews[b] = views
		}
	}
	e.xViews = make([]*tensor.Tensor, len(e.spans))
	for si, sp := range e.spans {
		e.xViews[si] = &tensor.Tensor{Shape: append([]int{sp.size}, p.Sample...)}
	}
	classes := head[1]
	e.lossGradSub = tensor.New(sub, classes)
	if rem != 0 {
		e.lossGradRem = tensor.New(rem, classes)
	}

	e.fnForward = func(si int, sp mbsSpan) {
		g := e.curGroup
		out := e.forwardGroup(g, e.inputView(g, si))
		es := e.groups[g].outElems
		copy(e.boundary[g].Data[sp.from*es:sp.to*es], out.Data)
	}
	e.fnLast = func(si int, sp mbsSpan) {
		g := e.curGroup
		logits := e.forwardGroup(g, e.inputView(g, si))
		lg := e.lossGradFor(sp.size)
		subLoss := softmaxCrossEntropyInto(lg, logits, e.curLabels[sp.from:sp.to])
		scale := float64(sp.size) / float64(e.plan.Batch)
		lg.Scale(scale)
		e.curLoss += subLoss * scale
		dx := e.backwardGroup(g, lg)
		if g > 0 {
			copy(e.dGradRows(g-1, sp), dx.Data)
		}
	}
	e.fnBackward = func(si int, sp mbsSpan) {
		g := e.curGroup
		e.setStatsFrozen(g, true)
		e.forwardGroup(g, e.inputView(g, si)) // recompute intra-group state
		e.setStatsFrozen(g, false)
		dx := e.backwardGroup(g, e.dyViews[g][si])
		if g > 0 {
			copy(e.dGradRows(g-1, sp), dx.Data)
		}
	}

	if e.pipe {
		e.packCh = make(chan packReq, 1)
		e.packDone = make(chan struct{}, 1)
		go func() {
			for r := range e.packCh {
				tensor.Im2ColPack(r.col, r.x, r.spec)
				e.packDone <- struct{}{}
			}
		}()
	}
	return e, nil
}

// matches reports whether this executor covers the given call exactly; any
// mismatch falls back to the legacy layer-by-layer path.
func (e *mbsExec) matches(x *tensor.Tensor, subBatch int) bool {
	return e != nil && reuseBuffers() && subBatch == e.plan.SubBatch && shapeEq(x.Shape, e.fullShape)
}

func (e *mbsExec) inputView(g, si int) *tensor.Tensor {
	if g == 0 {
		return e.xViews[si]
	}
	return e.boundViews[g-1][si]
}

func (e *mbsExec) lossGradFor(size int) *tensor.Tensor {
	if size == e.plan.SubBatch {
		return e.lossGradSub
	}
	return e.lossGradRem
}

// dGradRows is the span's slice of boundary b's gradient slab (parity b%2).
func (e *mbsExec) dGradRows(b int, sp mbsSpan) []float64 {
	es := e.groups[b].outElems
	return e.dBound[b%2][sp.from*es : sp.to*es]
}

// appendBatchNorms appends the BatchNorm layers inside l, descending into
// residual branches.
func appendBatchNorms(dst []*BatchNorm2D, l Layer) []*BatchNorm2D {
	switch v := l.(type) {
	case *BatchNorm2D:
		dst = append(dst, v)
	case *Residual:
		for _, bl := range v.Main.Layers {
			dst = appendBatchNorms(dst, bl)
		}
		if v.Shortcut != nil {
			for _, bl := range v.Shortcut.Layers {
				dst = appendBatchNorms(dst, bl)
			}
		}
	}
	return dst
}

// setStatsFrozen freezes or thaws the running statistics of group g's
// BatchNorm layers.
func (e *mbsExec) setStatsFrozen(g int, frozen bool) {
	for _, b := range e.groups[g].bns {
		b.freezeStats = frozen
	}
}

func (e *mbsExec) forwardGroup(g int, in *tensor.Tensor) *tensor.Tensor {
	layers := e.model.Net.Layers
	cur := in
	for i := e.groups[g].first; i <= e.groups[g].last; i++ {
		cur = layers[i].Forward(cur, true)
	}
	return cur
}

func (e *mbsExec) backwardGroup(g int, dy *tensor.Tensor) *tensor.Tensor {
	layers := e.model.Net.Layers
	for i := e.groups[g].last; i >= e.groups[g].first; i-- {
		dy = layers[i].Backward(dy)
	}
	return dy
}

func (e *mbsExec) installFor(eg *execGroup, size int) {
	if size == e.plan.SubBatch {
		eg.sub.install()
	} else {
		eg.rem.install()
	}
}

func (e *mbsExec) colLen(eg *execGroup, size int) int {
	if size == e.plan.SubBatch {
		return eg.colSub
	}
	return eg.colRem
}

// phaseSpans runs fn over every sub-batch span of group g, re-installing the
// arena views per span and, when the group opens with a pipelined conv,
// overlapping span b's compute with the packer goroutine lowering span b+1's
// im2col panels into the spare slab.
func (e *mbsExec) phaseSpans(g int, fn func(int, mbsSpan)) {
	e.curGroup = g
	eg := &e.groups[g]
	if eg.conv == nil {
		for si, sp := range e.spans {
			e.installFor(eg, sp.size)
			fn(si, sp)
		}
		return
	}
	cur := 0
	tensor.Im2ColPack(eg.slabs[cur][:e.colLen(eg, e.spans[0].size)], e.inputView(g, 0), eg.conv.Spec)
	for si, sp := range e.spans {
		if si+1 < len(e.spans) {
			nxt := e.spans[si+1]
			e.packCh <- packReq{
				col:  eg.slabs[1-cur][:e.colLen(eg, nxt.size)],
				x:    e.inputView(g, si+1),
				spec: eg.conv.Spec,
			}
		}
		e.installFor(eg, sp.size)
		eg.conv.col = eg.slabs[cur][:e.colLen(eg, sp.size)]
		eg.conv.prepacked = true
		fn(si, sp)
		eg.conv.prepacked = false
		if si+1 < len(e.spans) {
			<-e.packDone
		}
		cur = 1 - cur
	}
}

// accumulate runs one grouped MBS gradient accumulation (no optimizer step)
// and returns the mini-batch loss. Allocation-free after warm-up.
func (e *mbsExec) accumulate(x *tensor.Tensor, labels []int) float64 {
	for si, sp := range e.spans {
		e.xViews[si].Data = x.Data[sp.from*e.sampleElems : sp.to*e.sampleElems]
	}
	e.curLabels = labels
	e.curLoss = 0
	G := len(e.groups)
	for g := 0; g < G-1; g++ {
		e.phaseSpans(g, e.fnForward)
	}
	e.phaseSpans(G-1, e.fnLast)
	for g := G - 2; g >= 0; g-- {
		e.phaseSpans(g, e.fnBackward)
	}
	e.curLabels = nil
	return e.curLoss
}

// SetMBSPlan installs a grouped execution plan (from PlanMBS) on the model:
// subsequent TrainStepMBS/AccumulateGradsMBS calls whose input shape and
// sub-batch match the plan run on the grouped executor; everything else
// falls back to the layer-by-layer path. Passing nil clears the plan.
func (m *Model) SetMBSPlan(p *MBSPlan) error {
	if p == nil {
		m.ClearMBSPlan()
		return nil
	}
	e, err := newMBSExec(m, p)
	if err != nil {
		return err
	}
	m.ClearMBSPlan()
	m.mbs = e
	return nil
}

// ClearMBSPlan removes the installed plan and stops the packer goroutine.
func (m *Model) ClearMBSPlan() {
	if m.mbs != nil && m.mbs.packCh != nil {
		close(m.mbs.packCh)
	}
	m.mbs = nil
}

// MBSPlan returns the installed plan, or nil.
func (m *Model) MBSPlan() *MBSPlan {
	if m.mbs == nil {
		return nil
	}
	return m.mbs.plan
}
