package core

import (
	"fmt"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
)

// Fused reductions: the scan-aggregate hot path (paper Function 4) routed
// through the representation's chunk codec (for bit-packed arrays, the
// word-at-a-time kernels in internal/bitpack). A range [lo, hi)
// decomposes into a ragged head (lo up to the next chunk boundary), a run
// of whole chunks, and a ragged tail; the head and tail — at most 63
// elements each — go through Get, the whole chunks through the fused
// fold, so the per-element decode-into-a-buffer of the iterator path
// disappears from the dominant middle section.

// ReduceOp selects the fold of ReduceRange.
type ReduceOp = encoding.FoldOp

// Reduction operators. The identity returned for an empty range is 0 for
// ReduceSum and ReduceMax and ^uint64(0) for ReduceMin.
const (
	ReduceSum = encoding.FoldSum
	ReduceMax = encoding.FoldMax
	ReduceMin = encoding.FoldMin
)

// rangeParts splits [lo, hi) into a head [lo, headEnd), whole chunks
// [chunkLo, chunkHi), and a tail [tailStart, hi). Head and tail are handled
// per element; for ranges inside a single chunk everything lands in the
// head (headEnd == hi, chunkLo == chunkHi).
func rangeParts(lo, hi uint64) (headEnd, chunkLo, chunkHi, tailStart uint64) {
	chunkLo = (lo + bitpack.ChunkSize - 1) / bitpack.ChunkSize
	chunkHi = hi / bitpack.ChunkSize
	if chunkLo >= chunkHi {
		// No whole chunk inside the range: one per-element pass.
		return hi, 0, 0, hi
	}
	return chunkLo * bitpack.ChunkSize, chunkLo, chunkHi, chunkHi * bitpack.ChunkSize
}

func (a *SmartArray) checkRange(lo, hi uint64) {
	if hi > a.length {
		panic(fmt.Sprintf("core: range [%d,%d) out of bounds [0,%d)", lo, hi, a.length))
	}
}

// ReduceRange folds elements [lo, hi) with op for a reader on socket,
// dispatching whole chunks to the codec's fused FoldChunks and the ragged
// head/tail to Get.
func ReduceRange(a *SmartArray, socket int, lo, hi uint64, op ReduceOp) uint64 {
	return ReduceRangeCounted(a, socket, lo, hi, op, nil)
}

// countRaggedEnds accounts the per-element head and tail of a range as
// scanned chunks: each non-empty ragged end decodes part of one chunk.
func countRaggedEnds(lo, headEnd, tailStart, hi uint64, sc *ScanCounts) {
	if sc == nil {
		return
	}
	if lo < headEnd {
		sc.Scanned++
	}
	if tailStart < hi {
		sc.Scanned++
	}
}

// ReduceRangeCounted is ReduceRange with per-chunk scan accounting:
// chunks the zone index resolves without a payload read (constant folds
// for sums, chunk bounds for min/max) count as pruned, decoded chunks
// as scanned. sc may be nil.
func ReduceRangeCounted(a *SmartArray, socket int, lo, hi uint64, op ReduceOp, sc *ScanCounts) uint64 {
	acc := op.Identity()
	if lo >= hi {
		return acc
	}
	a.checkRange(lo, hi)
	rp := a.rep.Load()
	cc := rp.chunks(socket)
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	countRaggedEnds(lo, headEnd, tailStart, hi, sc)
	for i := lo; i < headEnd; i++ {
		acc = op.Fold(acc, cc.Get(i))
	}
	if chunkLo < chunkHi {
		if zones := rp.zones.Load(); zones != nil {
			acc = zoneReduceChunks(zones, cc, chunkLo, chunkHi, op, acc, sc)
		} else {
			acc = op.Fold(acc, cc.FoldChunks(op, chunkLo, chunkHi, nil))
			sc.addScanned(chunkHi - chunkLo)
		}
	}
	for i := tailStart; i < hi; i++ {
		acc = op.Fold(acc, cc.Get(i))
	}
	return acc
}

// zoneReduceChunks folds whole chunks [chunkLo, chunkHi) through the zone
// index: min/max read the per-chunk bounds without touching the payload
// (every chunk accounts as pruned), sums fold constant chunks in O(1)
// (pruned) and batch the rest into contiguous FoldChunks spans (scanned).
func zoneReduceChunks(z *encoding.ZoneIndex, cc encoding.ChunkCodec, chunkLo, chunkHi uint64, op ReduceOp, acc uint64, sc *ScanCounts) uint64 {
	if op != ReduceSum {
		for c := chunkLo; c < chunkHi; c++ {
			mn, mx := z.ChunkBounds(c)
			if op == ReduceMax {
				acc = op.Fold(acc, mx)
			} else {
				acc = op.Fold(acc, mn)
			}
		}
		sc.addPruned(chunkHi - chunkLo)
		return acc
	}
	spanLo := chunkLo
	var pruned uint64
	for c := chunkLo; c < chunkHi; c++ {
		if v, ok := z.Constant(c); ok {
			acc += cc.FoldChunks(ReduceSum, spanLo, c, nil)
			spanLo = c + 1
			acc += v * bitpack.ChunkSize
			pruned++
		}
	}
	sc.addPruned(pruned)
	sc.addScanned(chunkHi - chunkLo - pruned)
	return acc + cc.FoldChunks(ReduceSum, spanLo, chunkHi, nil)
}

// CountRange counts elements v in [lo, hi) satisfying "v op threshold" for
// a reader on socket, dispatching whole chunks to the codec's fused
// CountWhere; the zone index, when attached, resolves whole chunks (all
// rows match, or none do) without touching the payload.
func CountRange(a *SmartArray, socket int, lo, hi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	if lo >= hi {
		return 0
	}
	a.checkRange(lo, hi)
	rp := a.rep.Load()
	cc := rp.chunks(socket)
	headEnd, chunkLo, chunkHi, tailStart := rangeParts(lo, hi)
	var count uint64
	for i := lo; i < headEnd; i++ {
		if op.Eval(cc.Get(i), threshold) {
			count++
		}
	}
	if zones := rp.zones.Load(); zones != nil {
		count += zoneCountChunks(zones, cc, chunkLo, chunkHi, op, threshold)
	} else {
		count += cc.CountWhere(chunkLo, chunkHi, op, threshold)
	}
	for i := tailStart; i < hi; i++ {
		if op.Eval(cc.Get(i), threshold) {
			count++
		}
	}
	return count
}

// zoneCountChunks counts matches in whole chunks [chunkLo, chunkHi)
// through the zone index: resolved chunks contribute 0 or ChunkSize
// matches without touching the payload, and the mixed remainder batches
// into contiguous CountWhere spans.
func zoneCountChunks(z *encoding.ZoneIndex, cc encoding.ChunkCodec, chunkLo, chunkHi uint64, op bitpack.Cmp, threshold uint64) uint64 {
	var count uint64
	spanLo := chunkLo
	for c := chunkLo; c < chunkHi; c++ {
		switch z.Verdict(c, op, threshold) {
		case encoding.ZoneNone:
			count += cc.CountWhere(spanLo, c, op, threshold)
			spanLo = c + 1
		case encoding.ZoneAll:
			count += cc.CountWhere(spanLo, c, op, threshold)
			spanLo = c + 1
			count += bitpack.ChunkSize
		}
	}
	return count + cc.CountWhere(spanLo, chunkHi, op, threshold)
}
