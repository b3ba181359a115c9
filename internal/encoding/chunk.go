package encoding

import (
	"math/bits"
	"sort"

	"smartarrays/internal/bitpack"
)

// ChunkCodec is the chunk-granular kernel interface every encoding
// implements, mirroring the fused bitpack kernels so core.SmartArray and
// the colstore scan pipeline dispatch over the representation instead of
// assuming bit packing. Bit-packed smart arrays read through it too: one
// zero-copy BitPackedArray view per placed replica.
//
// Contract (same as core's range decomposition guarantees for bitpack):
//
//   - Unmasked folds (FoldChunks with nil masks) and CountWhere are
//     called only on ranges of full chunks — every element of
//     [chunkLo*64, chunkHi*64) is a real element. Ragged heads and tails
//     go through Get or the masked paths.
//   - Masked folds receive selection bitmaps whose bits beyond the valid
//     element range are clear (core.MaskRange clamps them), so a partial
//     tail chunk is safe to include.
//   - DecodeChunk and CmpMaskChunk may be called on a partial tail chunk;
//     decoded pad values and pad mask bits are unspecified — callers must
//     ignore positions at or beyond Length().
//   - Fold identities match bitpack: sum/count/max of an empty selection
//     is 0, min is ^uint64(0).
type ChunkCodec interface {
	Encoded
	// DecodeChunk materializes chunk's 64 elements into out.
	DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64)
	// CountWhere counts elements in [chunkLo, chunkHi) matching op threshold.
	CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64
	// CmpMaskChunk evaluates the predicate over one chunk into a bitmap
	// (bit i = element chunk*64+i matches).
	CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64
	// FoldChunks folds the elements of chunks [chunkLo, chunkHi) with op.
	// masks == nil folds every element; otherwise masks[c-chunkLo]
	// selects chunk c's elements.
	FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64
}

// Compile-time checks: every encoding implements the chunk-codec surface.
var (
	_ ChunkCodec = (*PlainArray)(nil)
	_ ChunkCodec = (*BitPackedArray)(nil)
	_ ChunkCodec = (*DictArray)(nil)
	_ ChunkCodec = (*RLEArray)(nil)
	_ ChunkCodec = (*DeltaArray)(nil)
	_ ChunkCodec = (*FoRArray)(nil)
)

// FoldOp selects the fold of FoldChunks.
type FoldOp int

// Fold operators. The identity of an empty selection is 0 for FoldSum
// and FoldMax and ^uint64(0) for FoldMin.
const (
	FoldSum FoldOp = iota
	FoldMax
	FoldMin
)

// String renders the operator.
func (op FoldOp) String() string {
	return [...]string{"sum", "max", "min"}[op]
}

// Identity is the fold of an empty selection.
func (op FoldOp) Identity() uint64 {
	if op == FoldMin {
		return ^uint64(0)
	}
	return 0
}

// Fold combines acc with v, a single element or a partial fold of the
// same operator.
func (op FoldOp) Fold(acc, v uint64) uint64 {
	switch op {
	case FoldSum:
		return acc + v
	case FoldMax:
		if v > acc {
			return v
		}
	default:
		if v < acc {
			return v
		}
	}
	return acc
}

// foldN folds n copies of v: v*n for sums, v itself for min/max (when
// n > 0).
func (op FoldOp) foldN(acc, v, n uint64) uint64 {
	if op == FoldSum {
		return acc + v*n
	}
	if n == 0 {
		return acc
	}
	return op.Fold(acc, v)
}

// chunkMask is chunk c's selection within a FoldChunks call: its mask
// word, or every element when masks is nil.
func chunkMask(masks []uint64, chunkLo, c uint64) uint64 {
	if masks == nil {
		return ^uint64(0)
	}
	return masks[c-chunkLo]
}

// foldSelected folds the elements of a decoded chunk that m selects.
func foldSelected(op FoldOp, acc uint64, buf *[bitpack.ChunkSize]uint64, m uint64) uint64 {
	if m == ^uint64(0) {
		for _, v := range buf {
			acc = op.Fold(acc, v)
		}
		return acc
	}
	for ; m != 0; m &= m - 1 {
		acc = op.Fold(acc, buf[bits.TrailingZeros64(m)])
	}
	return acc
}

// lowMask is a bitmap selecting the low n bits (n <= 64).
func lowMask(n uint64) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// chunkSpan clamps the element window of chunks [chunkLo, chunkHi) to the
// array length, returning [lo, hi).
func chunkSpan(length, chunkLo, chunkHi uint64) (lo, hi uint64) {
	lo = chunkLo * bitpack.ChunkSize
	hi = chunkHi * bitpack.ChunkSize
	if hi > length {
		hi = length
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// ---------------------------------------------------------------------------
// Plain: direct slice kernels.

// DecodeChunk materializes chunk's 64 elements into out.
func (p *PlainArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	copy(out[:], p.values[chunk*bitpack.ChunkSize:])
}

// CountWhere counts elements in [chunkLo, chunkHi) matching the predicate.
func (p *PlainArray) CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	lo, hi := chunkSpan(p.Length(), chunkLo, chunkHi)
	var n uint64
	for _, v := range p.values[lo:hi] {
		if op.Eval(v, threshold) {
			n++
		}
	}
	return n
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap.
func (p *PlainArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	lo, hi := chunkSpan(p.Length(), chunk, chunk+1)
	var m uint64
	for i, v := range p.values[lo:hi] {
		if op.Eval(v, threshold) {
			m |= uint64(1) << uint(i)
		}
	}
	return m
}

// FoldChunks folds the selected elements of [chunkLo, chunkHi).
func (p *PlainArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	acc := op.Identity()
	if masks == nil {
		lo, hi := chunkSpan(p.Length(), chunkLo, chunkHi)
		for _, v := range p.values[lo:hi] {
			acc = op.Fold(acc, v)
		}
		return acc
	}
	for c := chunkLo; c < chunkHi; c++ {
		base := c * bitpack.ChunkSize
		for m := masks[c-chunkLo]; m != 0; m &= m - 1 {
			acc = op.Fold(acc, p.values[base+uint64(bits.TrailingZeros64(m))])
		}
	}
	return acc
}

// ---------------------------------------------------------------------------
// BitPacked: straight delegation to the fused bitpack kernels.

// DecodeChunk materializes chunk's 64 elements into out.
func (b *BitPackedArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	b.codec.Unpack(b.data, chunk, out)
}

// CountWhere counts elements in [chunkLo, chunkHi) matching the predicate.
func (b *BitPackedArray) CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	return b.codec.CountWhere(b.data, chunkLo, chunkHi, op, threshold)
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap.
func (b *BitPackedArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	return b.codec.CmpMaskChunk(b.data, chunk, op, threshold)
}

// FoldChunks folds the selected elements of [chunkLo, chunkHi) through
// the fused (masked) bitpack kernel for op.
func (b *BitPackedArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	c, d := b.codec, b.data
	switch {
	case masks == nil && op == FoldSum:
		return c.SumChunks(d, chunkLo, chunkHi)
	case masks == nil && op == FoldMax:
		return c.MaxChunks(d, chunkLo, chunkHi)
	case masks == nil:
		return c.MinChunks(d, chunkLo, chunkHi)
	case op == FoldSum:
		return c.SumChunksMasked(d, chunkLo, chunkHi, masks)
	case op == FoldMax:
		return c.MaxChunksMasked(d, chunkLo, chunkHi, masks)
	default:
		return c.MinChunksMasked(d, chunkLo, chunkHi, masks)
	}
}

// ---------------------------------------------------------------------------
// Dict: predicates rewrite into ID space (the classic dictionary trick —
// the sorted dictionary makes order comparisons order-preserving on IDs),
// min/max fold over IDs, sums decode chunk-at-a-time.

// idPredicate is a value-space predicate rewritten into dictionary-ID
// space. Either the outcome is constant for every element (constKnown),
// or (op, thr) is the equivalent ID-space comparison.
type idPredicate struct {
	constKnown bool
	constAll   bool // with constKnown: true = every element matches
	op         bitpack.Cmp
	thr        uint64
}

// rewritePredicate maps (op, value) into ID space via binary search on
// the sorted dictionary. Comparisons then run on bit-packed IDs without
// decoding any values.
func (d *DictArray) rewritePredicate(op bitpack.Cmp, value uint64) idPredicate {
	nd := uint64(len(d.dict))
	i := uint64(sort.Search(len(d.dict), func(i int) bool { return d.dict[i] >= value }))
	exact := i < nd && d.dict[i] == value
	constOf := func(all bool) idPredicate { return idPredicate{constKnown: true, constAll: all} }
	switch op {
	case bitpack.CmpEq:
		if exact {
			return idPredicate{op: bitpack.CmpEq, thr: i}
		}
		return constOf(false)
	case bitpack.CmpNe:
		if exact {
			return idPredicate{op: bitpack.CmpNe, thr: i}
		}
		return constOf(true)
	case bitpack.CmpLt, bitpack.CmpGe:
		// value <  dict[id] for id >= i; value > dict[id] for id < i.
		j := i
		lt := op == bitpack.CmpLt
		if j == 0 {
			return constOf(!lt)
		}
		if j == nd {
			return constOf(lt)
		}
		if lt {
			return idPredicate{op: bitpack.CmpLt, thr: j}
		}
		return idPredicate{op: bitpack.CmpGe, thr: j}
	case bitpack.CmpLe, bitpack.CmpGt:
		j := i
		if exact {
			j++
		}
		le := op == bitpack.CmpLe
		if j == 0 {
			return constOf(!le)
		}
		if j == nd {
			return constOf(le)
		}
		if le {
			return idPredicate{op: bitpack.CmpLt, thr: j}
		}
		return idPredicate{op: bitpack.CmpGe, thr: j}
	default:
		panic("encoding: unknown comparison")
	}
}

// DecodeChunk materializes chunk's 64 elements into out (pad IDs beyond
// the last element decode as 0, a valid dictionary slot).
func (d *DictArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	d.ids.DecodeChunk(chunk, out)
	for i := range out {
		out[i] = d.dict[out[i]]
	}
}

// CountWhere counts matching elements without decoding: the predicate is
// rewritten into ID space and evaluated on the packed IDs.
func (d *DictArray) CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	p := d.rewritePredicate(op, threshold)
	if p.constKnown {
		if !p.constAll {
			return 0
		}
		lo, hi := chunkSpan(d.length, chunkLo, chunkHi)
		return hi - lo
	}
	return d.ids.CountWhere(chunkLo, chunkHi, p.op, p.thr)
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap, in
// ID space.
func (d *DictArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	p := d.rewritePredicate(op, threshold)
	if p.constKnown {
		if !p.constAll {
			return 0
		}
		return ^uint64(0)
	}
	return d.ids.CmpMaskChunk(chunk, p.op, p.thr)
}

// FoldChunks folds the selected elements of [chunkLo, chunkHi): min/max
// in ID space (the sorted dictionary makes them one ID fold plus a
// lookup), sums by decoding.
func (d *DictArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	if op == FoldSum {
		var buf [bitpack.ChunkSize]uint64
		var s uint64
		for c := chunkLo; c < chunkHi; c++ {
			if m := chunkMask(masks, chunkLo, c); m != 0 {
				d.DecodeChunk(c, &buf)
				s = foldSelected(FoldSum, s, &buf, m)
			}
		}
		return s
	}
	if chunkLo >= chunkHi || (masks != nil && bitpack.AllZeroMasks(masks)) {
		return op.Identity()
	}
	return d.dict[d.ids.FoldChunks(op, chunkLo, chunkHi, masks)]
}

// ---------------------------------------------------------------------------
// RLE: every fold walks runs, not elements — O(runs overlapping the
// range) instead of O(elements), which is where the >10x on sorted and
// clustered columns comes from.

// forEachSegment invokes fn(value, segStart, segLen) for each maximal
// run segment overlapping the element window [eLo, eHi), in order.
// eHi is clamped to the array length.
func (r *RLEArray) forEachSegment(eLo, eHi uint64, fn func(v, start, n uint64)) {
	if eHi > r.length {
		eHi = r.length
	}
	if eLo >= eHi {
		return
	}
	run, start := r.seekRun(eLo)
	for pos := eLo; pos < eHi; run++ {
		n := r.lengths.Get(run)
		end := start + n
		segEnd := end
		if segEnd > eHi {
			segEnd = eHi
		}
		fn(r.values.Get(run), pos, segEnd-pos)
		pos = segEnd
		start = end
	}
}

// DecodeChunk materializes chunk's 64 elements into out.
func (r *RLEArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	base := chunk * bitpack.ChunkSize
	r.forEachSegment(base, base+bitpack.ChunkSize, func(v, start, n uint64) {
		for i := start - base; i < start-base+n; i++ {
			out[i] = v
		}
	})
}

// CountWhere counts matching elements: one predicate evaluation per run.
func (r *RLEArray) CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	var count uint64
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, func(v, _, n uint64) {
		if op.Eval(v, threshold) {
			count += n
		}
	})
	return count
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap: one
// evaluation per run, bits set in contiguous spans.
func (r *RLEArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	base := chunk * bitpack.ChunkSize
	var m uint64
	r.forEachSegment(base, base+bitpack.ChunkSize, func(v, start, n uint64) {
		if op.Eval(v, threshold) {
			m |= lowMask(n) << (start - base)
		}
	})
	return m
}

// FoldChunks folds the selected elements of [chunkLo, chunkHi) once per
// run: value times the run's selected count for sums, the value itself
// for min/max when any of the run is selected.
func (r *RLEArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	acc := op.Identity()
	r.forEachSegment(chunkLo*bitpack.ChunkSize, chunkHi*bitpack.ChunkSize, func(v, start, n uint64) {
		selected := n
		if masks != nil {
			// Intersect the run's span with the selection, chunk by chunk.
			selected = 0
			for n > 0 {
				chunk := start / bitpack.ChunkSize
				bit := start % bitpack.ChunkSize
				take := min(bitpack.ChunkSize-bit, n)
				m := masks[chunk-chunkLo] >> bit & lowMask(take)
				selected += uint64(bits.OnesCount64(m))
				start += take
				n -= take
			}
		}
		acc = op.foldN(acc, v, selected)
	})
	return acc
}
