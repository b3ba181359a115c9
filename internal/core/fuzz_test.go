package core

import (
	"fmt"
	"math/rand"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// FuzzKernels checks every core kernel entry point against a plain
// []uint64 for a random array: random length and width, a codec from
// encoding.Kinds, every placement with readers on both sockets, the zone
// index on or off, random ranges with 0–2 predicates. Between the two
// rounds of checks the array is re-encoded and migrated, so each input
// also exercises the snapshot swaps.
func FuzzKernels(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(12), uint8(1), uint8(3), uint8(0), true)
	f.Add(uint64(2), uint16(1), uint8(64), uint8(0), uint8(0), uint8(2), false)
	f.Add(uint64(3), uint16(4096), uint8(32), uint8(3), uint8(1), uint8(5), true)
	f.Add(uint64(4), uint16(777), uint8(33), uint8(2), uint8(2), uint8(4), false)
	f.Add(uint64(5), uint16(130), uint8(1), uint8(5), uint8(3), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed uint64, length uint16, width, kind, placement, next uint8, zones bool) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + uint64(length)%4096
		bits := 1 + uint(width)%64
		values := fuzzValues(rng, n, bits)
		a := mustAlloc(t, newMemory(), Config{
			Length:    n,
			Bits:      bits,
			Placement: memsim.Placements[int(placement)%len(memsim.Placements)],
			Socket:    int(seed % 2),
		})
		for i, v := range values {
			a.Init(i%2, uint64(i), v)
		}
		if zones {
			a.BuildZoneIndex()
		}
		if _, err := a.Reencode(encoding.Kinds[int(kind)%len(encoding.Kinds)], 0); err != nil {
			t.Fatal(err)
		}
		checkKernels(t, rng, a, values)

		if _, err := a.Reencode(encoding.Kinds[int(next)%len(encoding.Kinds)], 1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Migrate(memsim.Placements[int(next)%len(memsim.Placements)], int(next%2)); err != nil {
			t.Fatal(err)
		}
		if got := a.ZoneIndex() != nil; got != zones {
			t.Fatalf("zone index attached = %v after Reencode+Migrate, want %v", got, zones)
		}
		checkKernels(t, rng, a, values)
	})
}

// fuzzValues draws n width-bit values mixing runs, sorted stretches and
// noise, so every codec and zone verdict has something to bite on.
func fuzzValues(rng *rand.Rand, n uint64, bits uint) []uint64 {
	mask := bitpack.MustNew(bits).Mask()
	values := make([]uint64, n)
	for i := uint64(0); i < n; {
		run := 1 + uint64(rng.Intn(150))
		var v uint64
		switch rng.Intn(4) {
		case 0:
			v = rng.Uint64() & mask
		case 1:
			v = mask
		case 2:
			v = 0
		default:
			v = i & mask
		}
		for ; run > 0 && i < n; run-- {
			values[i] = v
			if rng.Intn(8) == 0 {
				values[i] = rng.Uint64() & mask
			}
			i++
		}
	}
	return values
}

// fuzzPred is one threshold predicate.
type fuzzPred struct {
	op  bitpack.Cmp
	thr uint64
}

// checkKernels runs every entry point on a handful of random ranges for
// readers on both sockets and compares with the plain reference.
func checkKernels(t *testing.T, rng *rand.Rand, a *SmartArray, values []uint64) {
	t.Helper()
	n := uint64(len(values))
	if got := a.DecodeAll(); !equalValues(got, values) {
		t.Fatalf("%v: DecodeAll differs from reference", a.EncodingKind())
	}
	for trial := 0; trial < 6; trial++ {
		socket := trial % 2
		lo := uint64(rng.Int63n(int64(n)))
		hi := lo + uint64(rng.Int63n(int64(n-lo)+1))
		if trial == 0 {
			lo, hi = 0, n
		}
		var preds []fuzzPred
		for p := rng.Intn(3); p > 0; p-- {
			thr := values[rng.Intn(len(values))] + uint64(rng.Intn(3)) - 1
			preds = append(preds, fuzzPred{bitpack.Cmp(rng.Intn(6)), thr})
		}
		where := fmt.Sprintf("%v socket %d [%d,%d) preds %v", a.EncodingKind(), socket, lo, hi, preds)
		checkRange(t, where, a, socket, lo, hi, preds, values)
		checkAccess(t, where, rng, a, socket, lo, hi, values)
	}
}

// checkRange covers the folds, the count, the mask builders and the
// masked fold over [lo, hi).
func checkRange(t *testing.T, where string, a *SmartArray, socket int, lo, hi uint64, preds []fuzzPred, values []uint64) {
	t.Helper()
	for _, op := range []ReduceOp{ReduceSum, ReduceMin, ReduceMax} {
		want := op.Identity()
		for _, v := range values[lo:hi] {
			want = op.Fold(want, v)
		}
		if got := ReduceRange(a, socket, lo, hi, op); got != want {
			t.Fatalf("%s: ReduceRange(%v) = %d, want %d", where, op, got, want)
		}
		var sc ScanCounts
		if got := ReduceRangeCounted(a, socket, lo, hi, op, &sc); got != want {
			t.Fatalf("%s: ReduceRangeCounted(%v) = %d, want %d", where, op, got, want)
		}
	}
	for _, p := range preds {
		var want uint64
		for _, v := range values[lo:hi] {
			if p.op.Eval(v, p.thr) {
				want++
			}
		}
		if got := CountRange(a, socket, lo, hi, p.op, p.thr); got != want {
			t.Fatalf("%s: CountRange(%v %d) = %d, want %d", where, p.op, p.thr, got, want)
		}
	}
	if len(preds) == 0 || lo == hi {
		return
	}

	// Build the conjunction with the counted and uncounted twins side by
	// side; both must equal the reference selection.
	first, nm := MaskChunks(lo, hi)
	masks := make([]uint64, nm)
	counted := make([]uint64, nm)
	var sc ScanCounts
	live := MaskRange(a, socket, lo, hi, preds[0].op, preds[0].thr, masks)
	liveCounted := MaskRangeCounted(a, socket, lo, hi, preds[0].op, preds[0].thr, counted, &sc)
	for _, p := range preds[1:] {
		live = MaskRangeAnd(a, socket, lo, hi, p.op, p.thr, masks)
		liveCounted = MaskRangeAndCounted(a, socket, lo, hi, p.op, p.thr, counted, &sc)
	}
	if sc.Total() != nm*uint64(len(preds)) {
		t.Fatalf("%s: scan counts %+v cover %d chunks, want %d", where, sc, sc.Total(), nm*uint64(len(preds)))
	}
	var anyMatch bool
	folds := map[ReduceOp]uint64{ReduceSum: 0, ReduceMin: ^uint64(0), ReduceMax: 0}
	for i := first * bitpack.ChunkSize; i < (first+nm)*bitpack.ChunkSize; i++ {
		want := i >= lo && i < hi
		for _, p := range preds {
			want = want && p.op.Eval(values[i], p.thr)
		}
		c, bit := i/bitpack.ChunkSize-first, i%bitpack.ChunkSize
		if got := masks[c]>>bit&1 == 1; got != want {
			t.Fatalf("%s: mask bit of row %d = %v, want %v", where, i, got, want)
		}
		if got := counted[c]>>bit&1 == 1; got != want {
			t.Fatalf("%s: counted mask bit of row %d = %v, want %v", where, i, got, want)
		}
		if want {
			anyMatch = true
			for op, acc := range folds {
				folds[op] = op.Fold(acc, values[i])
			}
		}
	}
	if live != anyMatch || liveCounted != anyMatch {
		t.Fatalf("%s: live = %v/%v, want %v", where, live, liveCounted, anyMatch)
	}
	for op, want := range folds {
		if got := ReduceRangeMasked(a, socket, lo, hi, op, masks); got != want {
			t.Fatalf("%s: ReduceRangeMasked(%v) = %d, want %d", where, op, got, want)
		}
	}
}

// checkAccess covers the element-producing entry points: Gather,
// ReadRange, StreamRange, Map and View.Get.
func checkAccess(t *testing.T, where string, rng *rand.Rand, a *SmartArray, socket int, lo, hi uint64, values []uint64) {
	t.Helper()
	n := uint64(len(values))
	idx := make([]uint64, 1+rng.Intn(100))
	for i := range idx {
		idx[i] = uint64(rng.Int63n(int64(n)))
	}
	out := make([]uint64, len(idx))
	Gather(a, socket, idx, out)
	view := a.View(socket)
	for i, x := range idx {
		if out[i] != values[x] {
			t.Fatalf("%s: Gather[%d] (row %d) = %d, want %d", where, i, x, out[i], values[x])
		}
		if got := view.Get(x); got != values[x] {
			t.Fatalf("%s: View.Get(%d) = %d, want %d", where, x, got, values[x])
		}
	}

	got := make([]uint64, hi-lo)
	ReadRange(a, socket, lo, hi, got)
	if !equalValues(got, values[lo:hi]) {
		t.Fatalf("%s: ReadRange differs from reference", where)
	}

	got = got[:0]
	buf := make([]uint64, bitpack.ChunkSize*(1+rng.Intn(3)))
	StreamRange(a, socket, lo, hi, buf, func(base uint64, vals []uint64) {
		if base != lo+uint64(len(got)) || len(vals) > len(buf) {
			t.Fatalf("%s: StreamRange emitted run at %d of %d values after %d rows", where, base, len(vals), len(got))
		}
		got = append(got, vals...)
	})
	if !equalValues(got, values[lo:hi]) {
		t.Fatalf("%s: StreamRange differs from reference", where)
	}

	next := lo
	Map(a, socket, lo, hi, func(i, v uint64) {
		if i != next || v != values[i] {
			t.Fatalf("%s: Map visited (%d, %d), want (%d, %d)", where, i, v, next, values[next])
		}
		next++
	})
	if next != hi {
		t.Fatalf("%s: Map stopped at %d, want %d", where, next, hi)
	}
}

func equalValues(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
