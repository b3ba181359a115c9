// Per-query scan profiling for the table kernels. A profiled ScanState
// (ScanState.EnableProfile — Aggregate/GroupBy enable it when the runtime
// view carries a query profile, rts.Runtime.WithProfile) routes its chunk
// work through the counted core kernels and accumulates per-column
// ScanCounts in per-worker rows — the same owner-writes/fold-at-barrier
// discipline as the counter shards, so profiling adds no locks or shared
// atomics to the batch hot path. FoldProfile renders the rows as
// obs.ColumnProfile entries: codec kind, chunks scanned vs pruned, and
// payload bytes attributed pro-rata to the decoded chunks.
package colstore

import (
	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/obs"
)

// columnProfile renders one column's accounting. BytesDecoded charges
// the column's packed payload pro-rata per scanned chunk — exact for
// fixed-stride codecs, a fair estimate for run-length ones.
func columnProfile(col *Column, role string, sc core.ScanCounts) obs.ColumnProfile {
	arr := col.arr
	chunks := columnChunks(arr)
	var bytes uint64
	if chunks > 0 {
		bytes = sc.Scanned * ((arr.CompressedBytes() + chunks - 1) / chunks)
	}
	return obs.ColumnProfile{
		Column:        col.Name,
		Role:          role,
		Codec:         arr.EncodingKind().String(),
		Chunks:        chunks,
		ChunksScanned: sc.Scanned,
		ChunksPruned:  sc.Pruned,
		BytesDecoded:  bytes,
	}
}

// columnChunks is the column's total chunk count — the invariant target
// for ChunksScanned+ChunksPruned over a full pass.
func columnChunks(arr *core.SmartArray) uint64 {
	return (arr.Length() + bitpack.ChunkSize - 1) / bitpack.ChunkSize
}

// recordZoneAnswered credits a query answered entirely from the zone
// index root (unpredicated min/max): every chunk pruned, nothing
// decoded.
func recordZoneAnswered(prof *obs.QueryProfile, col *Column) {
	if prof == nil {
		return
	}
	prof.AddColumn(columnProfile(col, obs.RoleTarget, core.ScanCounts{Pruned: columnChunks(col.arr)}))
}

// accountMasked splits a batch's n chunks for a column consumed under a
// selection bitmap: chunks whose mask went dead are never touched
// (pruned), live ones are decoded (scanned).
func accountMasked(sc *core.ScanCounts, masks []uint64) {
	dead := bitpack.ZeroMasks(masks)
	sc.Scanned += uint64(len(masks)) - dead
	sc.Pruned += dead
}
