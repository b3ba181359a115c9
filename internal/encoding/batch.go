package encoding

import "smartarrays/internal/bitpack"

// Batched access over any ChunkCodec: index-vector gathers and contiguous
// range reads and streams, the graph-analytics entry points. A
// BitPackedArray takes the batched bitpack kernels, including their 64-
// and 32-bit fast paths; every other codec decodes through Get and
// DecodeChunk.

// Gather decodes out[i] = element idx[i]. Indices may repeat and appear
// in any order but must be in range; len(out) must be at least len(idx).
func Gather(cc ChunkCodec, idx, out []uint64) {
	if b, ok := cc.(*BitPackedArray); ok {
		b.codec.Gather(b.data, idx, out)
		return
	}
	for i, x := range idx {
		out[i] = cc.Get(x)
	}
}

// ReadRange decodes elements [lo, hi) into out[:hi-lo]: whole chunks
// straight into out, the ragged head and tail per element.
func ReadRange(cc ChunkCodec, lo, hi uint64, out []uint64) {
	if b, ok := cc.(*BitPackedArray); ok {
		switch b.Bits() {
		case 64:
			copy(out, b.data[lo:hi])
			return
		case 32:
			for i := lo; i < hi; i++ {
				w := b.data[i>>1]
				out[i-lo] = (w >> ((i & 1) * 32)) & 0xFFFFFFFF
			}
			return
		}
	}
	for i := lo; i < hi; {
		if i%bitpack.ChunkSize == 0 && hi-i >= bitpack.ChunkSize {
			cc.DecodeChunk(i/bitpack.ChunkSize, (*[bitpack.ChunkSize]uint64)(out[i-lo:]))
			i += bitpack.ChunkSize
			continue
		}
		out[i-lo] = cc.Get(i)
		i++
	}
}

// StreamRange decodes elements [lo, hi) through buf, invoking emit with
// decoded runs under bitpack.Codec.UnpackRange's contract: runs are in
// order, contiguous, at most len(buf) long, and vals is only valid during
// the call. buf must hold at least one chunk.
func StreamRange(cc ChunkCodec, lo, hi uint64, buf []uint64, emit func(base uint64, vals []uint64)) {
	if b, ok := cc.(*BitPackedArray); ok {
		b.codec.UnpackRange(b.data, lo, hi, buf, emit)
		return
	}
	chunkBuf := (*[bitpack.ChunkSize]uint64)(buf)
	for base := lo; base < hi; {
		chunk := base / bitpack.ChunkSize
		cc.DecodeChunk(chunk, chunkBuf)
		start := base % bitpack.ChunkSize
		end := min(hi-chunk*bitpack.ChunkSize, bitpack.ChunkSize)
		emit(base, chunkBuf[start:end])
		base += end - start
	}
}
