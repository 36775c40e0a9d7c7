package names

import (
	"bytes"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"testing"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

func tbl(method string, ctx uint64, attrs map[string]string) *transport.Table {
	return transport.NewTable(transport.Descriptor{
		Method: method, Context: transport.ContextID(ctx), Attrs: attrs,
	})
}

func TestRegistryMergeVersions(t *testing.T) {
	r := NewRegistry()
	if !r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("mpl", 1, nil)}) {
		t.Fatal("first record not applied")
	}
	_, _, g := r.ChangedSince(0)
	if r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("mpl", 1, nil)}) {
		t.Error("duplicate record applied")
	}
	if _, _, now := r.ChangedSince(g); now != g {
		t.Error("generation moved on a no-op merge")
	}
	if r.Merge(Record{Origin: 1, Seq: 0, Table: tbl("wan", 1, nil)}) {
		t.Error("stale record applied")
	}
	if !r.Merge(Record{Origin: 1, Seq: 2, Table: tbl("wan", 1, nil)}) {
		t.Error("newer record not applied")
	}
	if rec, _ := r.Get(1); rec.Seq != 2 || rec.Table.Entries[0].Method != "wan" {
		t.Errorf("registry holds %+v after newer merge", rec)
	}
	// The overtaken version stays dead.
	if r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("atm", 1, nil)}) {
		t.Error("resurrected stale record")
	}
}

// TestRegistryTombstoneEdgeCases covers the leave/crash protocol: a
// tombstone beats a live record at the same version, loses to a higher one,
// and a re-registering context must adopt a sequence above its tombstone.
func TestRegistryTombstoneEdgeCases(t *testing.T) {
	r := NewRegistry()
	r.Merge(Record{Origin: 5, Seq: 3, Table: tbl("mpl", 5, nil)})

	// Tombstone at the same seq wins (leave raced with a refresh).
	if !r.Merge(Record{Origin: 5, Seq: 3, Tombstone: true}) {
		t.Fatal("same-seq tombstone not applied")
	}
	// And the live record at that seq cannot come back.
	if r.Merge(Record{Origin: 5, Seq: 3, Table: tbl("mpl", 5, nil)}) {
		t.Error("live record overwrote same-seq tombstone")
	}
	if len(r.Live()) != 0 {
		t.Errorf("Live() = %v after tombstone", r.Live())
	}

	// Re-register after tombstone: only a higher seq revives the origin.
	if r.Merge(Record{Origin: 5, Seq: 2, Table: tbl("mpl", 5, nil)}) {
		t.Error("stale re-register applied over tombstone")
	}
	if !r.Merge(Record{Origin: 5, Seq: 4, Table: tbl("mpl", 5, nil)}) {
		t.Fatal("re-register after tombstone not applied")
	}
	if rec, _ := r.Get(5); rec.Tombstone || rec.Seq != 4 {
		t.Errorf("revived record = %+v", rec)
	}
	if len(r.Live()) != 1 {
		t.Errorf("Live() = %v after revive", r.Live())
	}
}

// TestRegistryConcurrentJoinTie pins the clock-free tie-break: two contexts
// concurrently publishing the same origin at the same sequence converge to
// the same winner on every registry, in either merge order.
func TestRegistryConcurrentJoinTie(t *testing.T) {
	a := Record{Origin: 9, Seq: 1, Table: tbl("mpl", 9, map[string]string{"addr": "1"})}
	b := Record{Origin: 9, Seq: 1, Table: tbl("mpl", 9, map[string]string{"addr": "2"})}

	r1 := NewRegistry()
	r1.Merge(a)
	r1.Merge(b)
	r2 := NewRegistry()
	r2.Merge(b)
	r2.Merge(a)
	if !r1.Equal(r2) {
		t.Fatalf("tie resolved differently: %+v vs %+v", r1.Snapshot(), r2.Snapshot())
	}
	// Exactly one of the two merges of the loser is a no-op; the winner is
	// stable under re-merge of either.
	win, _ := r1.Get(9)
	if r1.Merge(a) || r1.Merge(b) {
		t.Error("tie winner not stable under re-merge")
	}
	if got, _ := r1.Get(9); !bytes.Equal(got.canonical(), win.canonical()) {
		t.Error("winner changed after re-merge")
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	recs := []Record{
		{Origin: 1, Seq: 7, Forwarder: true, Partition: "p0", GossipEP: 3,
			Table: tbl("mpl", 1, map[string]string{"addr": "9", "fabric": "f"})},
		{Origin: 2, Seq: 1, Tombstone: true, Partition: "p1"},
	}
	b := buffer.New(256)
	EncodeRecords(b, recs)
	got, err := DecodeRecords(b)
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records", len(got))
	}
	for i := range recs {
		if !bytes.Equal(got[i].canonical(), recs[i].canonical()) {
			t.Errorf("record %d did not round-trip: %+v vs %+v", i, got[i], recs[i])
		}
	}

	// Truncated and hostile-count encodings fail cleanly.
	enc := buffer.New(256)
	EncodeRecords(enc, recs)
	raw := enc.Bytes()
	for cut := 1; cut < len(raw); cut += 7 {
		short := buffer.New(0)
		short.PutRaw(raw[:cut])
		if _, err := DecodeRecords(short); err == nil && cut < len(raw)-1 {
			// Some prefixes happen to parse as fewer records; the decoder
			// just must not panic or over-allocate.
			continue
		}
	}
	hostile := buffer.New(8)
	hostile.PutUint32(math.MaxUint32)
	if _, err := DecodeRecords(hostile); err == nil {
		t.Error("hostile record count accepted")
	}
}

func TestDigestWindowRotation(t *testing.T) {
	r := NewRegistry()
	for i := uint64(1); i <= 10; i++ {
		r.Merge(Record{Origin: transport.ContextID(i), Seq: 1, Table: tbl("mpl", i, nil)})
	}
	// Unbounded digest: full keyspace window, exhaustive entries.
	d, next := r.Digest(0, 0)
	if len(d.Entries) != 10 || d.Lo != 0 || d.Hi != math.MaxUint64 || next != 0 {
		t.Fatalf("full digest = %+v next=%d", d, next)
	}
	// Bounded digest sweeps the table over successive rounds.
	seen := map[transport.ContextID]bool{}
	idx := 0
	for round := 0; round < 4; round++ {
		d, idx = r.Digest(idx, 4)
		if len(d.Entries) != 4 {
			t.Fatalf("bounded digest has %d entries", len(d.Entries))
		}
		for _, e := range d.Entries {
			if !d.covers(e.Origin) {
				t.Errorf("window [%d,%d] does not cover own entry %d", d.Lo, d.Hi, e.Origin)
			}
			seen[e.Origin] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("4 rounds of limit-4 digests covered %d of 10 origins", len(seen))
	}

	// Digest encoding round-trips.
	b := buffer.New(128)
	d.Encode(b)
	got, err := DecodeDigest(b)
	if err != nil || got.Lo != d.Lo || got.Hi != d.Hi || len(got.Entries) != len(d.Entries) {
		t.Fatalf("digest round-trip: %+v err=%v", got, err)
	}
}

func TestDeltaForPushPull(t *testing.T) {
	newer := NewRegistry()
	older := NewRegistry()
	for i := uint64(1); i <= 5; i++ {
		rec := Record{Origin: transport.ContextID(i), Seq: 2, Table: tbl("mpl", i, nil)}
		newer.Merge(rec)
		if i != 3 { // older lacks origin 3 entirely
			older.Merge(Record{Origin: transport.ContextID(i), Seq: 1, Table: tbl("mpl", i, nil)})
		}
	}
	older.Merge(Record{Origin: 9, Seq: 5, Table: tbl("wan", 9, nil)}) // only older has 9

	d, _ := older.Digest(0, 0)
	delta, wants := newer.DeltaFor(d, 0)
	if len(delta) != 5 {
		t.Errorf("delta = %d records, want 5 (all newer + missing)", len(delta))
	}
	if len(wants) != 1 || wants[0] != 9 {
		t.Errorf("wants = %v, want [9]", wants)
	}
	// Applying the delta plus the answered want-list converges the pair.
	older.MergeAll(delta)
	newer.MergeAll(older.RecordsFor(wants, 0))
	if !older.Equal(newer) {
		t.Fatalf("pair did not converge:\n%+v\n%+v", older.Snapshot(), newer.Snapshot())
	}

	// The delta cap truncates lowest-origins-first, never errors.
	empty := NewRegistry()
	ed, _ := empty.Digest(0, 0)
	capped, _ := newer.DeltaFor(ed, 2)
	if len(capped) != 2 || capped[0].Origin != 1 || capped[1].Origin != 2 {
		t.Errorf("capped delta = %+v", capped)
	}
}

// TestChangedSince pins what the gossip agent folds each round: the records
// applied after a generation, in origin order, each with the FNV hash of its
// canonical encoding. Merges that lose change nothing; tombstones count.
func TestChangedSince(t *testing.T) {
	r := NewRegistry()
	for _, o := range []uint64{5, 1, 3} {
		r.Merge(Record{Origin: transport.ContextID(o), Seq: 1, Table: tbl("mpl", o, nil)})
	}
	check := func(since uint64, want ...transport.ContextID) ([]Record, uint64) {
		t.Helper()
		recs, hashes, now := r.ChangedSince(since)
		if len(recs) != len(want) || len(hashes) != len(want) {
			t.Fatalf("ChangedSince(%d) = %d records, %d hashes; want origins %v", since, len(recs), len(hashes), want)
		}
		for i, rec := range recs {
			h := fnv.New64a()
			h.Write(rec.canonical())
			if rec.Origin != want[i] || hashes[i] != h.Sum64() {
				t.Errorf("ChangedSince(%d)[%d] = origin %d hash %x, want origin %d hash %x",
					since, i, rec.Origin, hashes[i], want[i], h.Sum64())
			}
		}
		return recs, now
	}
	_, g := check(0, 1, 3, 5)
	check(g)

	a := Record{Origin: 3, Seq: 2, Table: tbl("mpl", 3, map[string]string{"addr": "1"})}
	b := Record{Origin: 3, Seq: 2, Table: tbl("mpl", 3, map[string]string{"addr": "2"})}
	win, lose := a, b
	if bytes.Compare(a.canonical(), b.canonical()) < 0 {
		win, lose = b, a
	}
	r.Merge(win)
	_, g = check(g, 3)
	if r.Merge(lose) || r.Merge(Record{Origin: 1, Seq: 0, Table: tbl("wan", 1, nil)}) {
		t.Fatal("a tie loser or a stale record was applied")
	}
	check(g)

	r.Merge(Record{Origin: 5, Seq: 2, Tombstone: true})
	r.Merge(Record{Origin: 1, Seq: 2, Table: tbl("wan", 1, nil)})
	if recs, _ := check(g, 1, 5); !recs[1].Tombstone {
		t.Errorf("ChangedSince returned %+v for a tombstoned origin", recs[1])
	}
}

// TestStaleMergeAllocs pins that a version older than the one held is turned
// away before it is encoded: gossip delivers most records more than once.
func TestStaleMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	r.Merge(Record{Origin: 1, Seq: 5, Table: tbl("mpl", 1, nil)})
	stale := Record{Origin: 1, Seq: 4, Table: tbl("mpl", 1, nil)}
	if avg := testing.AllocsPerRun(100, func() { r.Merge(stale) }); avg != 0 {
		t.Errorf("a stale Merge allocates %.1f times, want 0", avg)
	}
}

// TestDuplicateMergeAllocs pins that an identical re-delivery — a freshly
// decoded copy of the record held — is turned away by field comparison,
// before either record is encoded.
func TestDuplicateMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	r.Merge(Record{Origin: 1, Seq: 5, Partition: "p", Table: tbl("mpl", 1, map[string]string{"addr": "a"})})
	dup := Record{Origin: 1, Seq: 5, Partition: "p", Table: tbl("mpl", 1, map[string]string{"addr": "a"})}
	if avg := testing.AllocsPerRun(100, func() { r.Merge(dup) }); avg != 0 {
		t.Errorf("an identical Merge re-delivery allocates %.1f times, want 0", avg)
	}
}

// TestRecordEqualMatchesCanonical pins the agreement Merge's duplicate check
// rests on: two records are equal exactly when their canonical encodings
// are, over every pair drawn from records that differ in one field at a
// time, in attribute keys against empty values, and in a nil table against
// an empty one.
func TestRecordEqualMatchesCanonical(t *testing.T) {
	attrs := func(kv ...string) map[string]string {
		m := map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	base := Record{Origin: 1, Seq: 2, Partition: "p", GossipEP: 3, Table: tbl("mpl", 1, attrs("a", "1"))}
	with := func(f func(*Record)) Record {
		r := base
		f(&r)
		return r
	}
	recs := []Record{
		base,
		with(func(r *Record) { r.Table = tbl("mpl", 1, attrs("a", "1")) }),
		with(func(r *Record) { r.Origin = 2 }),
		with(func(r *Record) { r.Seq = 3 }),
		with(func(r *Record) { r.Tombstone = true }),
		with(func(r *Record) { r.Forwarder = true }),
		with(func(r *Record) { r.Partition = "q" }),
		with(func(r *Record) { r.GossipEP = 4 }),
		with(func(r *Record) { r.Table = nil }),
		with(func(r *Record) { r.Table = &transport.Table{} }),
		with(func(r *Record) { r.Table = &transport.Table{Entries: []transport.Descriptor{}} }),
		with(func(r *Record) { r.Table = tbl("tcp", 1, attrs("a", "1")) }),
		with(func(r *Record) { r.Table = tbl("mpl", 2, attrs("a", "1")) }),
		with(func(r *Record) { r.Table = tbl("mpl", 1, attrs("a", "")) }),
		with(func(r *Record) { r.Table = tbl("mpl", 1, attrs("b", "")) }),
		with(func(r *Record) { r.Table = tbl("mpl", 1, attrs("a", "1", "b", "")) }),
		with(func(r *Record) { r.Table = tbl("mpl", 1, nil) }),
		with(func(r *Record) { r.Table = tbl("mpl", 1, attrs()) }),
		with(func(r *Record) {
			r.Table = transport.NewTable(base.Table.Entries[0], base.Table.Entries[0])
		}),
	}
	for i, a := range recs {
		for j, b := range recs {
			if got, want := a.equal(b), bytes.Equal(a.canonical(), b.canonical()); got != want {
				t.Errorf("records %d and %d: equal = %v, canonical bytes equal = %v", i, j, got, want)
			}
		}
	}
}

// TestDigestAllocs pins a full digest to its entries slice: no origin list,
// no sort.
func TestDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	for o := uint64(1); o <= 400; o++ {
		r.Merge(Record{Origin: transport.ContextID(o), Seq: 1, Table: tbl("mpl", o, nil)})
	}
	if avg := testing.AllocsPerRun(100, func() { r.Digest(0, 0) }); avg != 1 {
		t.Errorf("Digest(0, 0) over 400 records allocates %.1f times, want 1", avg)
	}
}

// fuzzRecord derives a record from three fuzz bytes: origin 1–8, sequence
// 0–7, and a kind — a tombstone or one of three table variants.
func fuzzRecord(origin, seq, kind byte) Record {
	o := transport.ContextID(origin%8 + 1)
	rec := Record{Origin: o, Seq: uint64(seq % 8), Partition: "p"}
	switch k := kind % 4; k {
	case 0:
		rec.Tombstone = true
	default:
		rec.Forwarder = k == 2
		rec.Table = tbl("mpl", uint64(o), map[string]string{"addr": string(rune('a' + k))})
	}
	return rec
}

// FuzzGossipMerge is the convergence property under adversarial delivery:
// however a batch of records is reordered, duplicated, or interleaved with
// stale versions, every registry that saw the whole batch holds the same
// table.
func FuzzGossipMerge(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 0, 1, 1, 3}, uint8(3))
	f.Add([]byte{5, 5, 5, 5, 0, 0, 0, 0, 9, 9, 1, 2, 3, 4}, uint8(7))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		var recs []Record
		for i := 0; i+2 < len(data) && len(recs) < 64; i += 3 {
			recs = append(recs, fuzzRecord(data[i], data[i+1], data[i+2]))
		}

		forward := NewRegistry()
		forward.MergeAll(recs)

		// Reversed order.
		reversed := NewRegistry()
		for i := len(recs) - 1; i >= 0; i-- {
			reversed.Merge(recs[i])
		}

		// Rotated, with every record delivered twice.
		rotated := NewRegistry()
		if n := len(recs); n > 0 {
			r := int(rot) % n
			for i := 0; i < n; i++ {
				rotated.Merge(recs[(i+r)%n])
				rotated.Merge(recs[(i+r)%n])
			}
		}

		if !forward.Equal(reversed) {
			t.Fatalf("forward and reversed delivery diverged:\n%+v\n%+v",
				forward.Snapshot(), reversed.Snapshot())
		}
		if !forward.Equal(rotated) {
			t.Fatalf("forward and rotated+duplicated delivery diverged:\n%+v\n%+v",
				forward.Snapshot(), rotated.Snapshot())
		}

		// Records survive the wire encoding with merge semantics intact.
		b := buffer.New(1024)
		EncodeRecords(b, recs)
		decoded, err := DecodeRecords(b)
		if err != nil {
			t.Fatalf("round-tripping fuzz records: %v", err)
		}
		wired := NewRegistry()
		wired.MergeAll(decoded)
		if !forward.Equal(wired) {
			t.Fatalf("wire round-trip diverged:\n%+v\n%+v", forward.Snapshot(), wired.Snapshot())
		}
	})
}

// deltaForMap is the map-based DeltaFor the merge-walk replaced, kept as the
// reference FuzzDeltaFor compares against: a map of the digest's entries
// (the last entry per origin wins), a pass over every record held, and two
// sorts.
func deltaForMap(r *Registry, d Digest, maxDelta int) (delta []Record, wants []transport.ContextID) {
	known := make(map[transport.ContextID]DigestEntry, len(d.Entries))
	for _, e := range d.Entries {
		known[e.Origin] = e
	}
	r.mu.RLock()
	for o, s := range r.recs {
		if !d.covers(o) {
			continue
		}
		e, ok := known[o]
		switch {
		case !ok, e.Seq < s.rec.Seq:
			delta = append(delta, s.rec)
		case e.Seq == s.rec.Seq && e.Hash != s.hash:
			delta = append(delta, s.rec)
			wants = append(wants, o)
		}
	}
	for _, e := range d.Entries {
		s, ok := r.recs[e.Origin]
		if !ok || s.rec.Seq < e.Seq {
			wants = append(wants, e.Origin)
		}
	}
	r.mu.RUnlock()
	sort.Slice(delta, func(i, j int) bool { return delta[i].Origin < delta[j].Origin })
	if maxDelta > 0 && len(delta) > maxDelta {
		delta = delta[:maxDelta]
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i] < wants[j] })
	return delta, wants
}

// FuzzDeltaFor holds the merge-walk DeltaFor to deltaForMap on random
// registries and digests, including digests whose entries are out of order,
// repeat an origin, or sit in a wrapped (Lo > Hi) window.
func FuzzDeltaFor(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 2, 1, 2}, []byte{2, 1, 0, 0, 2, 1, 0, 3, 5, 9, 4, 3}, uint8(2), uint8(7), uint8(0))
	f.Add([]byte{0, 3, 1, 4, 1, 2, 6, 2, 3, 7, 0, 0}, []byte{7, 0, 1, 8, 3, 2, 0, 1, 3, 4, 6, 4}, uint8(6), uint8(2), uint8(1))
	f.Add([]byte{1, 1, 1}, []byte{}, uint8(0), uint8(math.MaxUint8), uint8(3))
	f.Fuzz(func(t *testing.T, held, digest []byte, lo, hi, maxDelta uint8) {
		r := NewRegistry()
		for i := 0; i+2 < len(held) && i < 3*64; i += 3 {
			r.Merge(fuzzRecord(held[i], held[i+1], held[i+2]))
		}
		// Windows range over origins 0–11 and wrap when lo > hi; hi 255 is
		// the full keyspace a whole-table digest advertises.
		d := Digest{Lo: transport.ContextID(lo % 12), Hi: transport.ContextID(hi % 12)}
		if hi == math.MaxUint8 {
			d.Lo, d.Hi = 0, math.MaxUint64
		}
		// Entries name origins 1–10, so some are held and some are not. Odd
		// third bytes take the sequence we hold, and one in two of those our
		// hash too, so agreeing and same-version divergent entries both occur.
		for i := 0; i+2 < len(digest) && len(d.Entries) < 64; i += 3 {
			e := DigestEntry{Origin: transport.ContextID(digest[i]%10 + 1), Seq: uint64(digest[i+1] % 8), Hash: uint64(digest[i+2])}
			if s, ok := r.recs[e.Origin]; ok && digest[i+2]%2 == 1 {
				e.Seq = s.rec.Seq
				if digest[i+2]%4 == 1 {
					e.Hash = s.hash
				}
			}
			d.Entries = append(d.Entries, e)
		}
		in := slices.Clone(d.Entries)
		limit := int(maxDelta % 8)
		wantDelta, wantWants := deltaForMap(r, d, limit)
		gotDelta, gotWants := r.DeltaFor(d, limit)
		if !slices.Equal(d.Entries, in) {
			t.Fatal("DeltaFor reordered the caller's digest entries")
		}
		if !slices.Equal(gotWants, wantWants) {
			t.Fatalf("wants = %v, reference %v (digest %+v)", gotWants, wantWants, d)
		}
		if len(gotDelta) != len(wantDelta) {
			t.Fatalf("delta of %d records, reference %d (digest %+v)", len(gotDelta), len(wantDelta), d)
		}
		for i := range gotDelta {
			if !bytes.Equal(gotDelta[i].canonical(), wantDelta[i].canonical()) {
				t.Fatalf("delta[%d] = %+v, reference %+v", i, gotDelta[i], wantDelta[i])
			}
		}
	})
}

// TestRecordHashIgnoresHostByteOrder pins a record's digest hash to its
// content: a context on a big-endian host must hash a record as one on a
// little-endian host does, or every digest entry between the two reads as
// diverged and Merge's byte tie-break can pick different winners.
func TestRecordHashIgnoresHostByteOrder(t *testing.T) {
	rec := Record{Origin: 7, Seq: 3, Forwarder: true, Partition: "p", GossipEP: 9,
		Table: tbl("mpl", 7, map[string]string{"partition": "p", "fabric": "f"})}
	hash := func() uint64 {
		r := NewRegistry()
		r.Merge(rec)
		d, _ := r.Digest(0, 0)
		return d.Entries[0].Hash
	}
	native := buffer.NativeFormat
	defer func() { buffer.NativeFormat = native }()
	want := hash()
	for _, f := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		buffer.NativeFormat = f
		if got := hash(); got != want {
			t.Errorf("with %v buffers the record hashes to %x, natively %x", f, got, want)
		}
	}
}

// minRecordBytes is the smallest encoded record: two uint64s, the flags, an
// empty partition's length prefix and a uint64.
const minRecordBytes = 8 + 8 + 1 + 4 + 8

// FuzzDecodeRecords checks that a record batch from a hostile peer never
// panics or allocates beyond what its bytes could encode, and that whatever
// DecodeRecords accepts re-encodes to the bytes it was decoded from.
func FuzzDecodeRecords(f *testing.F) {
	recs := []Record{
		{Origin: 1, Seq: 7, Forwarder: true, Partition: "p0", GossipEP: 3,
			Table: tbl("mpl", 1, map[string]string{"addr": "9", "fabric": "f"})},
		{Origin: 2, Seq: 1, Tombstone: true, Partition: "p1"},
	}
	for _, fm := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		b := buffer.NewFormat(fm, 256)
		EncodeRecords(b, recs)
		f.Add(b.Encode())
	}
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF}) // a hostile count
	unknown := buffer.NewFormat(buffer.LittleEndian, 64)
	EncodeRecords(unknown, recs[1:])
	unknown.Bytes()[4+16] |= 8 // a flag bit no decoder knows
	f.Add(unknown.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := buffer.FromBytes(data)
		if err != nil {
			return
		}
		got, err := DecodeRecords(b)
		if err != nil {
			return
		}
		if cap(got)*minRecordBytes > len(data) {
			t.Fatalf("decoded %d records (capacity %d) from %d bytes", len(got), cap(got), len(data))
		}
		used := data[1 : len(data)-b.Remaining()]
		re := buffer.NewFormat(b.Format(), len(used))
		EncodeRecords(re, got)
		if !bytes.Equal(re.Bytes(), used) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re.Bytes(), used)
		}
	})
}

// FuzzDecodeDigest is FuzzDecodeRecords for digests: a 24-byte entry per
// entry decoded, and an exact round trip.
func FuzzDecodeDigest(f *testing.F) {
	d := Digest{Lo: 3, Hi: 1, Entries: []DigestEntry{{Origin: 5, Seq: 2, Hash: 0xfeed}, {Origin: 1, Seq: 9, Hash: 1}}}
	for _, fm := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		b := buffer.NewFormat(fm, 128)
		d.Encode(b)
		f.Add(b.Encode())
	}
	f.Add(append(make([]byte, 17), 0xFF, 0xFF, 0xFF, 0xFF)) // a hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := buffer.FromBytes(data)
		if err != nil {
			return
		}
		got, err := DecodeDigest(b)
		if err != nil {
			return
		}
		if cap(got.Entries)*24 > len(data) {
			t.Fatalf("decoded %d entries (capacity %d) from %d bytes", len(got.Entries), cap(got.Entries), len(data))
		}
		used := data[1 : len(data)-b.Remaining()]
		re := buffer.NewFormat(b.Format(), len(used))
		got.Encode(re)
		if !bytes.Equal(re.Bytes(), used) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re.Bytes(), used)
		}
	})
}
