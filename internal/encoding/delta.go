package encoding

import (
	"math/bits"

	"smartarrays/internal/bitpack"
)

// zigzag maps a wrapping uint64 difference onto small magnitudes:
// 0,-1,+1,-2,... -> 0,1,2,3,... so ascending-by-small-steps data packs at
// a few bits per delta. Wrapping arithmetic makes the transform lossless
// for every pair of uint64 values.
func zigzag(diff uint64) uint64 {
	d := int64(diff)
	return uint64((d << 1) ^ (d >> 63))
}

// unzigzag inverts zigzag back to a wrapping difference.
func unzigzag(z uint64) uint64 {
	return uint64(int64(z>>1) ^ -int64(z&1))
}

// DeltaArray stores each 64-element chunk as a bit-packed first value
// ("base") plus bit-packed zigzag deltas between neighbours (delta 0 at
// each chunk start, so chunks decode independently). Sorted or
// slowly-varying data packs at the delta width instead of the value
// width, and chunks whose deltas are all zero — constant spans — are
// detected from the packed words and folded in O(1) per chunk.
type DeltaArray struct {
	bases  *BitPackedArray // first value of each chunk
	deltas *BitPackedArray // zigzag deltas, full length
	length uint64
	// constChunks counts chunks whose deltas are all zero, a cost-model
	// signal for how much of the array folds without decoding.
	constChunks uint64
}

// NewDelta builds a delta encoding of values.
func NewDelta(values []uint64) *DeltaArray {
	n := uint64(len(values))
	chunks := (n + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	bases := make([]uint64, chunks)
	deltas := make([]uint64, n)
	for i, v := range values {
		if i%bitpack.ChunkSize == 0 {
			bases[i/bitpack.ChunkSize] = v
			deltas[i] = 0
		} else {
			deltas[i] = zigzag(v - values[i-1])
		}
	}
	a := &DeltaArray{
		bases:  NewBitPacked(bases),
		deltas: NewBitPacked(deltas),
		length: n,
	}
	for c := uint64(0); c < chunks; c++ {
		if a.constChunk(c) {
			a.constChunks++
		}
	}
	return a
}

// constChunk reports whether chunk's deltas are all zero (the chunk is a
// single constant span) by testing the packed words directly — no decode.
func (a *DeltaArray) constChunk(chunk uint64) bool {
	wpc := a.deltas.codec.WordsPerChunk()
	for _, w := range a.deltas.data[chunk*wpc : (chunk+1)*wpc] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ConstChunkShare is the fraction of chunks that are constant spans.
func (a *DeltaArray) ConstChunkShare() float64 {
	chunks := (a.length + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	if chunks == 0 {
		return 0
	}
	return float64(a.constChunks) / float64(chunks)
}

// Kind identifies the technique.
func (a *DeltaArray) Kind() Kind { return Delta }

// Length is the element count.
func (a *DeltaArray) Length() uint64 { return a.length }

// PayloadBytes is chunk bases plus deltas.
func (a *DeltaArray) PayloadBytes() uint64 {
	return a.bases.PayloadBytes() + a.deltas.PayloadBytes()
}

// Get returns the element at index: the chunk base plus the prefix sum of
// the chunk's deltas up to index — random access pays a partial chunk
// decode, which is what the cost model charges it for.
func (a *DeltaArray) Get(index uint64) uint64 {
	if index >= a.length {
		panic("encoding: delta index out of range")
	}
	chunk := index / bitpack.ChunkSize
	v := a.bases.Get(chunk)
	if a.constChunk(chunk) {
		return v
	}
	base := chunk * bitpack.ChunkSize
	for i := base + 1; i <= index; i++ {
		v += unzigzag(a.deltas.Get(i))
	}
	return v
}

// DecodeChunk materializes chunk's 64 elements into out.
func (a *DeltaArray) DecodeChunk(chunk uint64, out *[bitpack.ChunkSize]uint64) {
	v := a.bases.Get(chunk)
	if a.constChunk(chunk) {
		for i := range out {
			out[i] = v
		}
		return
	}
	a.deltas.codec.Unpack(a.deltas.data, chunk, out)
	for i := range out {
		v += unzigzag(out[i])
		out[i] = v
	}
}

// FoldChunks folds the selected elements of [chunkLo, chunkHi); constant
// chunks fold their base once (times the selected count for sums)
// without decoding.
func (a *DeltaArray) FoldChunks(op FoldOp, chunkLo, chunkHi uint64, masks []uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	acc := op.Identity()
	for c := chunkLo; c < chunkHi; c++ {
		m := chunkMask(masks, chunkLo, c)
		if m == 0 {
			continue
		}
		if a.constChunk(c) {
			acc = op.foldN(acc, a.bases.Get(c), uint64(bits.OnesCount64(m)))
			continue
		}
		a.DecodeChunk(c, &buf)
		acc = foldSelected(op, acc, &buf, m)
	}
	return acc
}

// CountWhere counts elements matching the predicate; constant chunks are
// one evaluation for 64 elements.
func (a *DeltaArray) CountWhere(chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	var buf [bitpack.ChunkSize]uint64
	var count uint64
	for c := chunkLo; c < chunkHi; c++ {
		if a.constChunk(c) {
			if op.Eval(a.bases.Get(c), threshold) {
				count += bitpack.ChunkSize
			}
			continue
		}
		a.DecodeChunk(c, &buf)
		for _, v := range buf {
			if op.Eval(v, threshold) {
				count++
			}
		}
	}
	return count
}

// CmpMaskChunk evaluates the predicate over one chunk into a bitmap;
// constant chunks produce a constant mask in O(1).
func (a *DeltaArray) CmpMaskChunk(chunk uint64, op bitpack.Cmp, threshold uint64) uint64 {
	if a.constChunk(chunk) {
		if op.Eval(a.bases.Get(chunk), threshold) {
			return ^uint64(0)
		}
		return 0
	}
	var buf [bitpack.ChunkSize]uint64
	a.DecodeChunk(chunk, &buf)
	var m uint64
	for i, v := range buf {
		if op.Eval(v, threshold) {
			m |= uint64(1) << uint(i)
		}
	}
	return m
}
