package bench

import (
	"fmt"
	"time"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/core"
	"smartarrays/internal/encoding"
	"smartarrays/internal/machine"
	"smartarrays/internal/memsim"
	"smartarrays/internal/perfmodel"
	"smartarrays/internal/rts"
)

// Codec benchmark: the encoding zoo on the hot path. Two gated surfaces:
//
//   - RunCodecKernels re-encodes a live smart array through every codec
//     and really runs the fused fold and predicate-count kernels through
//     core.ReduceRange/CountRange on each representation (verified
//     against the plain reference), then models the paper-scale run with
//     the per-codec cost entries. Deterministic, so the rows gate like
//     the fused-kernel rows.
//   - MeasureCodecScans wall-clock-times the chunk-codec fold kernels on
//     sorted/clustered vs uniform data — the measured evidence behind the
//     EXPERIMENTS.md claim that RLE and delta fold clustered columns
//     >10x faster than the bit-packed decode. Timing rows are printed,
//     never gated.

// codecBenchBits is the native width of the codec benchmark columns.
const codecBenchBits = 16

// codecDataset describes one value distribution.
type codecDataset struct {
	name      string
	clustered bool
}

var codecDatasets = []codecDataset{
	{name: "clustered", clustered: true},
	{name: "uniform", clustered: false},
}

// codecValue is the dataset's value function: equal-value runs of
// hash-derived values (clustered), or the paper's pseudo-random
// initialization formula (uniform).
func (d codecDataset) value(i, mask uint64) uint64 {
	if d.clustered {
		const runLen = 512
		h := (i/runLen)*6364136223846793005 + 1442695040888963407
		h ^= h >> 31
		return h & mask
	}
	return initFormula(i, mask)
}

// RunCodecKernels executes and models the per-codec fold benchmark cells.
func RunCodecKernels(opts Options) ([]KernelResult, error) {
	spec := machine.X52Large()
	rt := rts.New(spec)
	opts.instrument(rt)

	var rows []KernelResult
	for _, d := range codecDatasets {
		a, err := core.Allocate(rt.Memory(), core.Config{
			Length: opts.Elements, Bits: codecBenchBits, Placement: memsim.Interleaved,
			Name: "codec-" + d.name,
		})
		if err != nil {
			return nil, err
		}
		mask := a.Codec().Mask()
		for i := uint64(0); i < opts.Elements; i++ {
			a.Init(0, i, d.value(i, mask))
		}
		thr := mask / 2
		var refSum, refCount uint64
		for i := uint64(0); i < opts.Elements; i++ {
			v := d.value(i, mask)
			refSum += v
			if v <= thr {
				refCount++
			}
		}

		for _, kind := range encoding.Kinds {
			if _, err := a.Reencode(kind, 0); err != nil {
				a.Free()
				return nil, fmt.Errorf("bench: re-encoding %s to %v: %w", d.name, kind, err)
			}
			cs := a.EncodingStats()

			sum := rt.ReduceSum(0, opts.Elements, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
				a.AccountReduce(w.Counters, lo, hi)
				return core.ReduceRange(a, w.Socket, lo, hi, core.ReduceSum)
			})
			count := rt.ReduceSum(0, opts.Elements, 0, func(w *rts.Worker, lo, hi uint64) uint64 {
				a.AccountReduce(w.Counters, lo, hi)
				return core.CountRange(a, w.Socket, lo, hi, bitpack.CmpLe, thr)
			})
			sumOK, countOK := sum == refSum, count == refCount
			if opts.Verify && (!sumOK || !countOK) {
				a.Free()
				return nil, fmt.Errorf("bench: codec kernel mismatch for %v on %s (sum ok=%v, count ok=%v)",
					kind, d.name, sumOK, countOK)
			}
			rows = append(rows,
				modelCodecKernel(spec, fmt.Sprintf("codec-sum/%v/%s", kind, d.name),
					cs, perfmodel.CostEncodedReduce(cs), sumOK),
				// The count adds one compare per decoded element; run- and
				// chunk-skipping codecs fold it into the per-run/chunk work.
				modelCodecKernel(spec, fmt.Sprintf("codec-count/%v/%s", kind, d.name),
					cs, perfmodel.CostEncodedReduce(cs)+1, countOK),
			)
		}
		a.Free()
	}
	return rows, nil
}

// modelCodecKernel evaluates the paper-scale fold for one codec cell:
// one streaming read of the representation's payload at the per-codec
// modeled instruction cost.
func modelCodecKernel(spec *machine.Spec, kernel string, cs encoding.CostStats, instrPerElem float64, verified bool) KernelResult {
	w := perfmodel.Workload{
		Instructions: float64(PaperAggElements) * instrPerElem,
		Streams: []perfmodel.Stream{
			{Kind: perfmodel.Read, Bytes: float64(PaperAggElements) * cs.PayloadBitsPerElem / 8, Placement: memsim.Interleaved},
		},
	}
	res := perfmodel.Solve(spec, w)
	return KernelResult{
		Machine:       spec,
		Kernel:        kernel,
		Bits:          cs.CodeBits,
		Ops:           PaperAggElements,
		NsPerOp:       res.Seconds * 1e9 / float64(PaperAggElements),
		TimeMs:        res.Seconds * 1e3,
		InstructionsG: res.Instructions / 1e9,
		Bottleneck:    string(res.Bottleneck),
		Verified:      verified,
	}
}

// CodecScanRow is one measured codec-fold timing cell.
type CodecScanRow struct {
	Dataset string
	Kind    encoding.Kind
	// CodeBits is the width the codec's decode shifts through;
	// PayloadBytes its storage footprint.
	CodeBits     uint
	PayloadBytes uint64
	// NsPerElem is the best-of-reps wall-clock fold time; Speedup is
	// relative to the bit-packed row of the same dataset.
	NsPerElem float64
	Speedup   float64
	// Verified reports the fold matched the plain reference sum.
	Verified bool
}

// MeasureCodecScans times the chunk-codec sum kernels on every codec over
// clustered and uniform data. elements is rounded down to a whole number
// of chunks (default 1<<22); reps is the number of timed passes, best
// taken (default 5).
func MeasureCodecScans(elements uint64, reps int) []CodecScanRow {
	if elements == 0 {
		elements = 1 << 22
	}
	elements &^= bitpack.ChunkSize - 1
	if reps <= 0 {
		reps = 5
	}
	mask := uint64(1)<<codecBenchBits - 1

	var rows []CodecScanRow
	for _, d := range codecDatasets {
		values := make([]uint64, elements)
		var refSum uint64
		for i := range values {
			v := d.value(uint64(i), mask)
			values[i] = v
			refSum += v
		}
		var bitpackedNs float64
		for _, kind := range encoding.Kinds {
			enc, err := encoding.Build(kind, values)
			if err != nil {
				continue
			}
			cc := enc.(encoding.ChunkCodec)
			chunks := elements / bitpack.ChunkSize
			fold := func() uint64 { return cc.FoldChunks(encoding.FoldSum, 0, chunks, nil) }
			fold() // warm caches and page in the payload
			best := time.Duration(1<<63 - 1)
			var sum uint64
			for r := 0; r < reps; r++ {
				start := time.Now()
				sum = fold()
				if el := time.Since(start); el < best {
					best = el
				}
			}
			row := CodecScanRow{
				Dataset:      d.name,
				Kind:         kind,
				CodeBits:     encoding.CostStatsOf(enc).CodeBits,
				PayloadBytes: enc.PayloadBytes(),
				NsPerElem:    float64(best.Nanoseconds()) / float64(elements),
				Verified:     sum == refSum,
			}
			if kind == encoding.BitPacked {
				bitpackedNs = row.NsPerElem
			}
			rows = append(rows, row)
		}
		// Speedups are relative to the bit-packed fold on the same data.
		for i := range rows {
			if rows[i].Dataset == d.name && rows[i].NsPerElem > 0 {
				rows[i].Speedup = bitpackedNs / rows[i].NsPerElem
			}
		}
	}
	return rows
}
