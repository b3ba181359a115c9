// Representations and live re-encoding: the representation axis of §6's
// on-the-fly adaptation. A SmartArray's storage is a repr snapshot: a
// placed memsim.Region plus the encoding.ChunkCodecs every kernel reads
// through. A bit-packed array (the paper's §4.2 default) has one
// zero-copy encoding.BitPackedArray view per replica of its region; a
// re-encoded array has its single codec, with the region as a
// payload-sized accounting mirror. Reencode and Migrate build a new
// snapshot and swap it in atomically. Readers load the snapshot once per
// call and finish on whatever representation they started with (the
// simulator's Free only drops accounting; in-flight readers keep the old
// slices alive), so both are safe under concurrent scans.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"smartarrays/internal/encoding"
	"smartarrays/internal/memsim"
)

// repr is one immutable representation snapshot.
type repr struct {
	// region is the placed storage: the packed words themselves for a
	// bit-packed array, otherwise an accounting mirror sized to the
	// encoding's payload (so placement, footprint, and traffic stay
	// honest in the memory simulator while the codec owns the payload).
	region *memsim.Region
	// codecs is what kernels read through (see chunks): one
	// BitPackedArray view per replica of region, or the single
	// re-encoded codec.
	codecs []encoding.ChunkCodec
	// cost summarizes the codec for the perfmodel's per-codec entries.
	cost encoding.CostStats
	// zones is the optional zone index over this representation's values
	// (see zonemap.go); nil until BuildZoneIndex. It lives on the snapshot
	// so a representation swap can never pair stale bounds with new
	// payload — readers get both or neither from one Load.
	zones atomic.Pointer[encoding.ZoneIndex]
}

// packedRepr is the bit-packed representation over region's replicas,
// viewed at the array's logical width.
func (a *SmartArray) packedRepr(region *memsim.Region) *repr {
	replicas := region.AllReplicas()
	codecs := make([]encoding.ChunkCodec, len(replicas))
	for i, words := range replicas {
		codecs[i] = encoding.NewBitPackedView(a.codec, words, a.length)
	}
	return &repr{region: region, codecs: codecs, cost: encoding.CostStatsOf(codecs[0])}
}

// chunks is the codec a reader on socket uses: its local replica's view
// when replicated (paper: getReplica()), the single codec otherwise.
func (rp *repr) chunks(socket int) encoding.ChunkCodec {
	if len(rp.codecs) == 1 {
		return rp.codecs[0]
	}
	return rp.codecs[socket]
}

// packed reports whether the region holds the array's packed words —
// true unless re-encoded. Only the word-level paper API (replica words,
// Init, iterators, serialization, word traffic mapping) and Migrate's
// rebuild of the views over new replica words ask.
func (rp *repr) packed() bool { return rp.cost.Kind == encoding.BitPacked }

// wordRange maps an element range to the words its access touches: the
// packed layout, or a payload-proportional span of the mirror.
func (rp *repr) wordRange(a *SmartArray, lo, hi uint64) (loWord, hiWord uint64) {
	if rp.packed() {
		return a.WordRange(lo, hi)
	}
	if lo >= hi {
		return 0, 0
	}
	words := rp.region.Words()
	loWord = lo * words / a.length
	hiWord = hi * words / a.length
	if hiWord <= loWord {
		hiWord = loWord + 1
	}
	return loWord, hiWord
}

// EncodingKind is the array's current representation (BitPacked for the
// packed words it is allocated with).
func (a *SmartArray) EncodingKind() encoding.Kind {
	return a.rep.Load().cost.Kind
}

// EncodingStats summarizes the current representation for the cost model.
func (a *SmartArray) EncodingStats() encoding.CostStats {
	return a.rep.Load().cost
}

// DecodeAll materializes the array's logical content, whatever the
// current representation. Intended for re-encoding and serialization,
// not hot paths.
func (a *SmartArray) DecodeAll() []uint64 {
	return encoding.Decode(a.rep.Load().chunks(0))
}

// Reencode migrates the array to the given encoding in place, returning
// the traffic the re-encoding generates (read the old payload, write the
// new) — the representation analogue of Migrate. BitPacked restores the
// packed words at the array's logical width. Concurrent readers are
// safe: they finish on the snapshot they loaded. Re-encoding to the
// current representation is a no-op.
func (a *SmartArray) Reencode(kind encoding.Kind, socket int) (trafficBytes uint64, err error) {
	a.reencodeMu.Lock()
	defer a.reencodeMu.Unlock()
	old := a.rep.Load()
	if old.region == nil {
		return 0, errors.New("core: Reencode on a freed array")
	}
	if old.cost.Kind == kind {
		return 0, nil
	}
	values := encoding.Decode(old.chunks(0))
	placement := old.region.Placement()

	var next *repr
	if kind == encoding.BitPacked {
		region, aerr := a.mem.Alloc(a.codec.WordsFor(a.length), placement, socket)
		if aerr != nil {
			return 0, fmt.Errorf("core: re-encoding to %v: %w", kind, aerr)
		}
		packed := a.codec.PackSlice(values)
		for _, replica := range region.AllReplicas() {
			copy(replica, packed)
		}
		region.TouchRange(0, uint64(len(packed)), socket)
		next = a.packedRepr(region)
	} else {
		enc, berr := encoding.Build(kind, values)
		if berr != nil {
			return 0, fmt.Errorf("core: re-encoding to %v: %w", kind, berr)
		}
		cc, ok := enc.(encoding.ChunkCodec)
		if !ok {
			return 0, fmt.Errorf("core: encoding %v lacks chunk kernels", kind)
		}
		words := max((enc.PayloadBytes()+7)/8, 1)
		region, aerr := a.mem.Alloc(words, placement, socket)
		if aerr != nil {
			return 0, fmt.Errorf("core: re-encoding to %v: %w", kind, aerr)
		}
		region.TouchRange(0, words, socket)
		next = &repr{region: region, codecs: []encoding.ChunkCodec{cc}, cost: encoding.CostStatsOf(enc)}
	}

	// Rebuild the zone index from the already-decoded values — a free
	// extra pass — so the new snapshot carries fresh bounds atomically.
	if old.zones.Load() != nil {
		next.zones.Store(encoding.NewZoneIndexFromValues(values))
	}
	a.rep.Store(next)
	a.gen.Add(1)
	old.region.Free()
	a.reg.SetEncoding(a.id, kind.String(), next.cost.CodeBits)
	return old.region.FootprintBytes() + next.region.FootprintBytes(), nil
}

// Migrate restructures the array to a new placement, returning the
// traffic the restructuring generates (§6's on-the-fly adaptation). Like
// Reencode it publishes a fresh snapshot — the data in a new region at
// the new placement, the codec views rebuilt over its replicas, the zone
// index carried over — so concurrent readers finish on the old one.
func (a *SmartArray) Migrate(p memsim.Placement, socket int) (trafficBytes uint64, err error) {
	a.reencodeMu.Lock()
	defer a.reencodeMu.Unlock()
	old := a.rep.Load()
	region, trafficBytes, err := old.region.MigrateTo(p, socket)
	if err != nil || region == old.region {
		return trafficBytes, err
	}
	next := &repr{region: region, codecs: old.codecs, cost: old.cost}
	if old.packed() {
		next = a.packedRepr(region)
	}
	next.zones.Store(old.zones.Load())
	a.rep.Store(next)
	a.reg.SetPlacement(a.id, p.String())
	return trafficBytes, nil
}
