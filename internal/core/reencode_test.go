package core

import (
	"sync"
	"testing"

	"smartarrays/internal/bitpack"
	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// reencodeFixture allocates a 12-bit array with runs-plus-noise content
// and returns the array with its plain shadow.
func reencodeFixture(t *testing.T, n uint64) (*SmartArray, []uint64) {
	t.Helper()
	a := mustAlloc(t, newMemory(), Config{Length: n, Bits: 12, Placement: memsim.Interleaved, Name: "reencode"})
	mask := a.Codec().Mask()
	values := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		v := (i / 37) * 2654435761 & mask // short runs of hash values
		values[i] = v
		a.Init(0, i, v)
	}
	return a, values
}

// TestReencodeCycleAllKinds migrates one array through every codec and
// back to native, checking the whole read surface on each representation.
func TestReencodeCycleAllKinds(t *testing.T) {
	const n = 5*bitpack.ChunkSize + 17
	a, values := reencodeFixture(t, n)
	var refSum uint64
	thr := a.Codec().Mask() / 3
	var refCount uint64
	for _, v := range values {
		refSum += v
		if v >= thr {
			refCount++
		}
	}

	cycle := append(append([]encoding.Kind{}, encoding.Kinds...), encoding.BitPacked)
	for _, kind := range cycle {
		traffic, err := a.Reencode(kind, 0)
		if err != nil {
			t.Fatalf("Reencode(%v): %v", kind, err)
		}
		if got := a.EncodingKind(); got != kind {
			t.Fatalf("EncodingKind = %v, want %v", got, kind)
		}
		if traffic == 0 && kind != encoding.BitPacked {
			// First transition leaves BitPacked, so traffic must flow.
			t.Errorf("Reencode(%v) reported zero traffic", kind)
		}
		if got := ReduceRange(a, 0, 0, n, ReduceSum); got != refSum {
			t.Errorf("%v: ReduceRange sum = %d, want %d", kind, got, refSum)
		}
		if got := CountRange(a, 0, 0, n, bitpack.CmpGe, thr); got != refCount {
			t.Errorf("%v: CountRange = %d, want %d", kind, got, refCount)
		}
		replica := a.GetReplica(0)
		for _, i := range []uint64{0, 1, 36, 37, n / 2, n - 1} {
			if got := a.Get(replica, i); got != values[i] {
				t.Errorf("%v: Get(%d) = %d, want %d", kind, i, got, values[i])
			}
		}
		dec := a.DecodeAll()
		for i, v := range values {
			if dec[i] != v {
				t.Fatalf("%v: DecodeAll[%d] = %d, want %d", kind, i, dec[i], v)
			}
		}
		// Masked pipeline: predicate on the array, fold the selection.
		masks := make([]uint64, (n+bitpack.ChunkSize-1)/bitpack.ChunkSize)
		MaskRange(a, 0, 0, n, bitpack.CmpGe, thr, masks)
		var want uint64
		for _, v := range values {
			if v >= thr {
				want += v
			}
		}
		if got := ReduceRangeMasked(a, 0, 0, n, ReduceSum, masks); got != want {
			t.Errorf("%v: masked sum = %d, want %d", kind, got, want)
		}
	}

	// Repeat re-encode to the current kind is a free no-op.
	traffic, err := a.Reencode(encoding.BitPacked, 0)
	if err != nil || traffic != 0 {
		t.Errorf("no-op Reencode = (%d, %v), want (0, nil)", traffic, err)
	}
}

// TestReencodeStatsReflectRepresentation checks EncodingStats tracks the
// live representation (the re-encoder scores the current rep with it).
func TestReencodeStatsReflectRepresentation(t *testing.T) {
	a, _ := reencodeFixture(t, 4096)
	if cs := a.EncodingStats(); cs.Kind != encoding.BitPacked || cs.CodeBits != 12 {
		t.Fatalf("native stats = %+v, want bitpacked/12", cs)
	}
	if _, err := a.Reencode(encoding.RLE, 0); err != nil {
		t.Fatal(err)
	}
	cs := a.EncodingStats()
	if cs.Kind != encoding.RLE || cs.RunsPerElem == 0 {
		t.Fatalf("RLE stats = %+v, want rle with RunsPerElem > 0", cs)
	}
}

func TestReencodeFreedArrayFails(t *testing.T) {
	a, _ := reencodeFixture(t, 256)
	a.Free()
	if _, err := a.Reencode(encoding.RLE, 0); err == nil {
		t.Fatal("Reencode on freed array should fail")
	}
}

// TestReencodeUnderConcurrentScans migrates the representation while
// readers scan and random-access it — under -race this pins the
// snapshot-swap design: every reader finishes on the representation it
// loaded and every observed result is exact.
func TestReencodeUnderConcurrentScans(t *testing.T) {
	const n = 8 * bitpack.ChunkSize
	a, values := reencodeFixture(t, n)
	var refSum uint64
	for _, v := range values {
		refSum += v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := ReduceRange(a, 0, 0, n, ReduceSum); got != refSum {
					errs <- "scan mismatch"
					return
				}
				x = x*6364136223846793005 + 1442695040888963407
				i := x % n
				if got := a.GetFrom(0, i); got != values[i] {
					errs <- "get mismatch"
					return
				}
			}
		}(uint64(g) + 1)
	}

	cycle := append(append([]encoding.Kind{}, encoding.Kinds...), encoding.BitPacked)
	for round := 0; round < 8; round++ {
		for _, kind := range cycle {
			if _, err := a.Reencode(kind, 0); err != nil {
				t.Fatalf("round %d: Reencode(%v): %v", round, kind, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestMigrateUnderConcurrentScans cycles the placement while readers on
// both sockets scan, mask and gather — under -race this pins that Migrate
// publishes a fresh snapshot instead of rewriting the region readers are
// on, and every observed result stays exact.
func TestMigrateUnderConcurrentScans(t *testing.T) {
	const n = 8 * bitpack.ChunkSize
	a, values := reencodeFixture(t, n)
	a.BuildZoneIndex()
	var refSum, refCount uint64
	thr := values[n/2]
	for _, v := range values {
		refSum += v
		if v < thr {
			refCount++
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for socket := 0; socket < 2; socket++ {
		wg.Add(1)
		go func(socket int) {
			defer wg.Done()
			masks := make([]uint64, n/bitpack.ChunkSize)
			idx := []uint64{0, n / 3, n - 1}
			out := make([]uint64, len(idx))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := ReduceRange(a, socket, 0, n, ReduceSum); got != refSum {
					errs <- "scan mismatch"
					return
				}
				MaskRange(a, socket, 0, n, bitpack.CmpLt, thr, masks)
				if got := bitpack.PopcountMasks(masks); got != refCount {
					errs <- "mask mismatch"
					return
				}
				Gather(a, socket, idx, out)
				for i, x := range idx {
					if out[i] != values[x] {
						errs <- "gather mismatch"
						return
					}
				}
			}
		}(socket)
	}

	cycle := []memsim.Placement{memsim.Replicated, memsim.Interleaved, memsim.SingleSocket}
	for round := 0; round < 8; round++ {
		for _, p := range cycle {
			if _, err := a.Migrate(p, round%2); err != nil {
				t.Fatalf("round %d: Migrate(%v): %v", round, p, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if a.ZoneIndex() == nil {
		t.Error("Migrate dropped the zone index")
	}
	if got := a.DecodeAll(); len(got) != len(values) || got[n-1] != values[n-1] {
		t.Error("contents changed across migrations")
	}
}
