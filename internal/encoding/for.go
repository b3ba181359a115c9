package encoding

import (
	"smartarrays/internal/bitpack"
)

// FoRArray is frame-of-reference encoding: one reference value (the
// minimum) plus bit-packed residuals at the width of the value *range*.
// Narrow ranges far from zero — timestamps, surrogate keys, sensor
// baselines — pack at MinBits(max-min) instead of MinBits(max). Every
// fold delegates to the fused bitpack kernels over the residuals plus
// reference algebra, and predicates rewrite their thresholds into
// residual space so comparisons never decode.
type FoRArray struct {
	ref    uint64
	resid  *BitPackedArray
	length uint64
}

// NewFoR builds a frame-of-reference encoding of values.
func NewFoR(values []uint64) *FoRArray {
	var ref uint64
	if len(values) > 0 {
		ref = values[0]
		for _, v := range values {
			if v < ref {
				ref = v
			}
		}
	}
	resid := make([]uint64, len(values))
	for i, v := range values {
		resid[i] = v - ref
	}
	return &FoRArray{ref: ref, resid: NewBitPacked(resid), length: uint64(len(values))}
}

// Kind identifies the technique.
func (f *FoRArray) Kind() Kind { return FoR }

// Length is the element count.
func (f *FoRArray) Length() uint64 { return f.length }

// Bits is the residual width.
func (f *FoRArray) Bits() uint { return f.resid.Bits() }

// Get returns the element at index.
func (f *FoRArray) Get(index uint64) uint64 {
	if index >= f.length {
		panic("encoding: for index out of range")
	}
	return f.ref + f.resid.Get(index)
}

// PayloadBytes is the residual payload (the reference rides in the
// header, like the codec width).
func (f *FoRArray) PayloadBytes() uint64 { return f.resid.PayloadBytes() }

// DecodeChunk materializes chunk's 64 elements into out.
func (f *FoRArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	f.resid.DecodeChunk(chunk, out)
	for i := range out {
		out[i] += f.ref
	}
}

// FoldChunks folds the selected elements of [chunkLo, chunkHi) in
// residual space: sums add ref once per folded element (pad residuals are
// zero, so clamping the unmasked count to the array length keeps partial
// tail chunks exact too), min/max add ref to the residual fold unless
// nothing is selected, so the identity is not offset.
func (f *FoRArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var n uint64
	if masks == nil {
		lo, hi := chunkSpan(f.length, chunkLo, chunkHi)
		n = hi - lo
	} else {
		n = bitpack.PopcountMasks(masks)
	}
	resid := f.resid.FoldChunks(op, chunkLo, chunkHi, masks)
	switch {
	case op == FoldSum:
		return resid + f.ref*n
	case n == 0:
		return op.Identity()
	default:
		return f.ref + resid
	}
}

// rewriteThreshold maps a value-space threshold into residual space.
// When threshold < ref every element compares greater, so the outcome is
// constant per operator; otherwise threshold-ref is exact (the fused
// bitpack kernels already handle thresholds beyond the packed width).
func (f *FoRArray) rewriteThreshold(op bitpack.Cmp, threshold uint64) (resid uint64, constKnown, constAll bool) {
	if threshold >= f.ref {
		return threshold - f.ref, false, false
	}
	// Every value >= ref > threshold.
	switch op {
	case bitpack.CmpEq, bitpack.CmpLt, bitpack.CmpLe:
		return 0, true, false
	default: // Ne, Gt, Ge
		return 0, true, true
	}
}

// CountWhere counts elements matching the predicate, in residual space.
func (f *FoRArray) CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	t, constKnown, constAll := f.rewriteThreshold(op, threshold)
	if constKnown {
		if !constAll {
			return 0
		}
		lo, hi := chunkSpan(f.length, chunkLo, chunkHi)
		return hi - lo
	}
	return f.resid.CountWhere(chunkLo, chunkHi, op, t)
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap, in
// residual space.
func (f *FoRArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	t, constKnown, constAll := f.rewriteThreshold(op, threshold)
	if constKnown {
		if !constAll {
			return 0
		}
		return ^uint64(0)
	}
	return f.resid.CmpMaskChunk(chunk, op, t)
}
