package names

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
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
	_, g := r.ChangedSince(nil, 0)
	if r.Merge(Record{Origin: 1, Seq: 1, Table: tbl("mpl", 1, nil)}) {
		t.Error("duplicate record applied")
	}
	if _, now := r.ChangedSince(nil, g); now != g {
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
	newer.MergeAll(older.RecordsFor(nil, wants, 0))
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
// applied after a generation, in origin order, each as the registry now holds
// it. Merges that lose change nothing, so the agent folds every record it is
// handed; tombstones count.
func TestChangedSince(t *testing.T) {
	r := NewRegistry()
	for _, o := range []uint64{5, 1, 3} {
		r.Merge(Record{Origin: transport.ContextID(o), Seq: 1, Table: tbl("mpl", o, nil)})
	}
	check := func(since uint64, want ...transport.ContextID) ([]Record, uint64) {
		t.Helper()
		recs, now := r.ChangedSince(nil, since)
		if len(recs) != len(want) {
			t.Fatalf("ChangedSince(%d) = %d records; want origins %v", since, len(recs), want)
		}
		for i, rec := range recs {
			held, _ := r.Get(rec.Origin)
			if rec.Origin != want[i] || !rec.equal(held) {
				t.Errorf("ChangedSince(%d)[%d] = %+v, want origin %d as held (%+v)", since, i, rec, want[i], held)
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

// TestDigestAllocs pins a round's digest to the bytes of its message:
// encoding a 400-record digest into a buffer sized for it allocates nothing.
func TestDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	for o := uint64(1); o <= 400; o++ {
		r.Merge(Record{Origin: transport.ContextID(o), Seq: 1, Table: tbl("mpl", o, nil)})
	}
	b := buffer.New(20 + 24*400)
	if avg := testing.AllocsPerRun(100, func() { b.Reset(); r.AppendDigest(b, 0, 0) }); avg != 0 {
		t.Errorf("AppendDigest(0, 0) over 400 records allocates %.1f times, want 0", avg)
	}
}

// TestDecodeDigestAllocs pins that a receiver's digest scratch, once large
// enough, takes the next digest without allocating.
func TestDecodeDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	for o := uint64(1); o <= 400; o++ {
		r.Merge(Record{Origin: transport.ContextID(o), Seq: 1, Table: tbl("mpl", o, nil)})
	}
	b := buffer.New(20 + 24*400)
	r.AppendDigest(b, 0, 0)
	var d Digest
	if avg := testing.AllocsPerRun(100, func() {
		b.Rewind()
		if err := d.Decode(b); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("decoding a 400-entry digest into scratch allocates %.1f times, want 0", avg)
	}
	if len(d.Entries) != 400 {
		t.Fatalf("decoded %d entries, want 400", len(d.Entries))
	}
}

// TestDeltaForInSyncAllocs pins that a digest agreeing with the registry —
// whole, bounded, or wrapped past the highest origin — is judged without
// allocating: it yields no delta and no wants, and is never copied to sort.
func TestDeltaForInSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ours, theirs := NewRegistry(), NewRegistry()
	for o := uint64(1); o <= 400; o++ {
		rec := Record{Origin: transport.ContextID(o), Seq: 1, Table: tbl("mpl", o, nil)}
		ours.Merge(rec)
		theirs.Merge(rec)
	}
	for _, w := range []struct{ start, limit int }{{0, 0}, {10, 100}, {350, 100}} {
		d, _ := theirs.Digest(w.start, w.limit)
		avg := testing.AllocsPerRun(100, func() {
			if delta, wants := ours.DeltaFor(d, 64); len(delta) != 0 || len(wants) != 0 {
				t.Fatalf("in-sync digest gave %d records and %d wants", len(delta), len(wants))
			}
		})
		if avg != 0 {
			t.Errorf("DeltaFor of an in-sync Digest(%d, %d) allocates %.1f times, want 0", w.start, w.limit, avg)
		}
	}
}

// TestDigestWrappedWindow pins a window that wraps past the highest origin:
// its entries ascend, its bounds still name the first and last origin of the
// rotation, AppendDigest packs exactly what Digest.Encode does, and the
// decoded digest is the same.
func TestDigestWrappedWindow(t *testing.T) {
	r := NewRegistry()
	for o := uint64(1); o <= 10; o++ {
		r.Merge(Record{Origin: transport.ContextID(o * 10), Seq: o, Table: tbl("mpl", o, nil)})
	}
	d, next := r.Digest(8, 4) // records 8, 9, 0 and 1 of the rotation
	if next != 2 || d.Lo != 90 || d.Hi != 20 {
		t.Fatalf("wrapped window [%d,%d] next %d, want [90,20] next 2", d.Lo, d.Hi, next)
	}
	var origins []transport.ContextID
	for _, e := range d.Entries {
		origins = append(origins, e.Origin)
		if !d.covers(e.Origin) {
			t.Errorf("window [%d,%d] does not cover its entry %d", d.Lo, d.Hi, e.Origin)
		}
	}
	if want := []transport.ContextID{10, 20, 90, 100}; !slices.Equal(origins, want) {
		t.Fatalf("wrapped entries %v, want %v", origins, want)
	}
	enc := buffer.New(128)
	d.Encode(enc)
	app := buffer.New(128)
	if n := r.AppendDigest(app, 8, 4); n != next {
		t.Errorf("AppendDigest returned next %d, Digest %d", n, next)
	}
	if !bytes.Equal(app.Bytes(), enc.Bytes()) {
		t.Fatalf("AppendDigest packed %x, Digest.Encode %x", app.Bytes(), enc.Bytes())
	}
	got, err := DecodeDigest(app)
	if err != nil || got.Lo != d.Lo || got.Hi != d.Hi || !slices.Equal(got.Entries, d.Entries) {
		t.Fatalf("round trip gave %+v (%v), want %+v", got, err, d)
	}
}

// TestMergeAllMatchesMerge holds a batch merge — new origins gathered and
// inserted in one pass — to merging the same records one at a time: the
// same count applied, the same records, fingerprint and generation.
func TestMergeAllMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var held, batch []Record
		for i := rng.Intn(8); i > 0; i-- {
			held = append(held, fuzzRecord(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
		}
		for i := rng.Intn(24); i > 0; i-- {
			batch = append(batch, fuzzRecord(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
		}
		one, all := NewRegistry(), NewRegistry()
		for _, rec := range held {
			one.Merge(rec)
			all.Merge(rec)
		}
		applied := 0
		for _, rec := range batch {
			if one.Merge(rec) {
				applied++
			}
		}
		if got := all.MergeAll(batch); got != applied {
			t.Fatalf("trial %d: MergeAll applied %d, Merge one by one %d", trial, got, applied)
		}
		_, genOne := one.ChangedSince(nil, 0)
		_, genAll := all.ChangedSince(nil, 0)
		if !one.Equal(all) || one.Fingerprint() != all.Fingerprint() || genOne != genAll {
			t.Fatalf("trial %d: batch and one-by-one merges differ:\n%+v\n%+v", trial, all.Snapshot(), one.Snapshot())
		}
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

// recordHash is the content hash a registry caches for a record it holds.
func recordHash(rec Record) uint64 {
	h := fnv.New64a()
	h.Write(rec.canonical())
	return h.Sum64()
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
	for _, rec := range r.Snapshot() {
		o := rec.Origin
		if !d.covers(o) {
			continue
		}
		e, ok := known[o]
		switch {
		case !ok, e.Seq < rec.Seq:
			delta = append(delta, rec)
		case e.Seq == rec.Seq && e.Hash != recordHash(rec):
			delta = append(delta, rec)
			wants = append(wants, o)
		}
	}
	for _, e := range d.Entries {
		rec, ok := r.Get(e.Origin)
		if !ok || rec.Seq < e.Seq {
			wants = append(wants, e.Origin)
		}
	}
	sort.Slice(delta, func(i, j int) bool { return delta[i].Origin < delta[j].Origin })
	if maxDelta > 0 && len(delta) > maxDelta {
		delta = delta[:maxDelta]
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i] < wants[j] })
	return delta, wants
}

// FuzzDeltaFor holds the merge-walk DeltaFor to deltaForMap on random
// registries and digests, including digests whose entries are out of order,
// repeat an origin, or sit in a wrapped (Lo > Hi) window. Every digest is
// judged twice: as built, and after Encode and a Decode into scratch that
// held the previous digest, which must not change the verdict.
func FuzzDeltaFor(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 2, 1, 2}, []byte{2, 1, 0, 0, 2, 1, 0, 3, 5, 9, 4, 3}, uint8(2), uint8(7), uint8(0))
	f.Add([]byte{0, 3, 1, 4, 1, 2, 6, 2, 3, 7, 0, 0}, []byte{7, 0, 1, 8, 3, 2, 0, 1, 3, 4, 6, 4}, uint8(6), uint8(2), uint8(1))
	f.Add([]byte{1, 1, 1}, []byte{}, uint8(0), uint8(math.MaxUint8), uint8(3))
	scratch := Digest{Entries: []DigestEntry{{Origin: 99, Seq: 99, Hash: 99}}}
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
			if rec, ok := r.Get(e.Origin); ok && digest[i+2]%2 == 1 {
				e.Seq = rec.Seq
				if digest[i+2]%4 == 1 {
					e.Hash = recordHash(rec)
				}
			}
			d.Entries = append(d.Entries, e)
		}
		in := slices.Clone(d.Entries)
		limit := int(maxDelta % 8)
		wantDelta, wantWants := deltaForMap(r, d, limit)
		b := buffer.New(20 + 24*len(d.Entries))
		d.Encode(b)
		if err := scratch.Decode(b); err != nil {
			t.Fatalf("decoding an encoded digest: %v", err)
		}
		for _, got := range []Digest{d, scratch} {
			gotDelta, gotWants := r.DeltaFor(got, limit)
			if !slices.Equal(got.Entries, in) {
				t.Fatal("DeltaFor reordered the caller's digest entries, or the digest did not round-trip")
			}
			if got.Lo != d.Lo || got.Hi != d.Hi {
				t.Fatalf("window [%d,%d] decoded as [%d,%d]", d.Lo, d.Hi, got.Lo, got.Hi)
			}
			if !slices.Equal(gotWants, wantWants) {
				t.Fatalf("wants = %v, reference %v (digest %+v)", gotWants, wantWants, got)
			}
			if len(gotDelta) != len(wantDelta) {
				t.Fatalf("delta of %d records, reference %d (digest %+v)", len(gotDelta), len(wantDelta), got)
			}
			for i := range gotDelta {
				if !bytes.Equal(gotDelta[i].canonical(), wantDelta[i].canonical()) {
					t.Fatalf("delta[%d] = %+v, reference %+v", i, gotDelta[i], wantDelta[i])
				}
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

// batchRecord derives a record from three fuzz bytes for FuzzReadBatch:
// origin 1–6, sequence 0–3, and a kind covering what a batch can carry — a
// tombstone with and without a table, a live record with a nil, an empty or
// one of two same-version divergent tables, a forwarder, and a second
// partition.
func batchRecord(origin, seq, kind byte) Record {
	o := transport.ContextID(origin%6 + 1)
	rec := Record{Origin: o, Seq: uint64(seq % 4), Partition: "p", GossipEP: uint64(o) + 100}
	addr := func(a string) *transport.Table { return tbl("mpl", uint64(o), map[string]string{"addr": a}) }
	switch kind % 8 {
	case 0:
		rec.Tombstone = true
	case 1:
		rec.Tombstone, rec.Table = true, addr("a")
	case 2:
	case 3:
		rec.Table = &transport.Table{}
	case 4:
		rec.Table = addr("a")
	case 5:
		rec.Table = addr("b")
	case 6:
		rec.Forwarder, rec.Table = true, addr("a")
	case 7:
		rec.Partition, rec.Table = "q", addr("a")
	}
	return rec
}

// FuzzReadBatch holds the byte-judged merge — ReadBatch then MergeBatch,
// which skips repeats and losers without decoding them — to the reference
// it replaced, DecodeRecords then MergeAll, on a registry that already holds
// some records: the same accept or reject, the same applied count, the same
// records, fingerprint and generation, the same first record, and the
// buffer left at the same place. Batches come in either byte order, and may
// be truncated or have one byte corrupted.
func FuzzReadBatch(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1, 2, 2}, []byte{0, 1, 4, 0, 1, 5, 1, 2, 2, 2, 3, 0, 3, 0, 3}, false, uint16(0xFFFF), uint16(0), byte(0))
	f.Add([]byte{0, 1, 4, 1, 2, 6, 2, 0, 3}, []byte{0, 1, 4, 1, 2, 6, 2, 0, 3}, true, uint16(0xFFFF), uint16(0), byte(0))
	f.Add([]byte{3, 1, 1}, []byte{3, 1, 0, 3, 1, 1, 4, 3, 7, 4, 2, 4}, true, uint16(40), uint16(0), byte(0))
	f.Add([]byte{}, []byte{5, 3, 5, 5, 3, 4}, false, uint16(0xFFFF), uint16(20), byte(0x80))
	f.Fuzz(func(t *testing.T, held, batch []byte, bigEndian bool, cut, at uint16, flip byte) {
		var heldRecs, recs []Record
		for i := 0; i+2 < len(held) && len(heldRecs) < 32; i += 3 {
			heldRecs = append(heldRecs, batchRecord(held[i], held[i+1], held[i+2]))
		}
		for i := 0; i+2 < len(batch) && len(recs) < 32; i += 3 {
			recs = append(recs, batchRecord(batch[i], batch[i+1], batch[i+2]))
		}
		format := buffer.LittleEndian
		if bigEndian {
			format = buffer.BigEndian
		}
		enc := buffer.NewFormat(format, 64)
		EncodeRecords(enc, recs)
		wire := slices.Clone(enc.Encode())
		if int(cut) < len(wire) {
			wire = wire[:cut]
		}
		if len(wire) > 1 && flip != 0 {
			wire[1+int(at)%(len(wire)-1)] ^= flip
		}
		ref, got := NewRegistry(), NewRegistry()
		ref.MergeAll(heldRecs)
		got.MergeAll(heldRecs)

		refBuf, err := buffer.FromBytes(wire)
		if err != nil {
			return
		}
		decoded, refErr := DecodeRecords(refBuf)
		refApplied := 0
		if refErr == nil {
			refApplied = ref.MergeAll(decoded)
		}
		gotBuf, _ := buffer.FromBytes(slices.Clone(wire))
		var bt Batch
		gotErr := got.ReadBatch(gotBuf, &bt)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("DecodeRecords error %v, ReadBatch error %v", refErr, gotErr)
		}
		if gotErr == nil {
			if bt.Len() != len(decoded) {
				t.Fatalf("batch of %d records, DecodeRecords read %d", bt.Len(), len(decoded))
			}
			if len(decoded) > 0 && !bytes.Equal(bt.First().canonical(), decoded[0].canonical()) {
				t.Fatalf("First = %+v, decoded first record %+v", bt.First(), decoded[0])
			}
			if gotBuf.Remaining() != refBuf.Remaining() {
				t.Fatalf("ReadBatch left %d bytes, DecodeRecords %d", gotBuf.Remaining(), refBuf.Remaining())
			}
		}
		if applied := got.MergeBatch(&bt); applied != refApplied {
			t.Fatalf("MergeBatch applied %d, MergeAll of the decoded batch %d", applied, refApplied)
		}
		_, refGen := ref.ChangedSince(nil, 0)
		_, gotGen := got.ChangedSince(nil, 0)
		if !got.Equal(ref) || got.Fingerprint() != ref.Fingerprint() || gotGen != refGen {
			t.Fatalf("registries differ:\n got %+v\n ref %+v", got.Snapshot(), ref.Snapshot())
		}
	})
}

// TestRepeatBatchAllocs pins that a batch the registry already holds,
// record for record, is judged from its bytes and costs no allocation,
// whatever the buffer's byte order: gossip delivers most records more than
// once.
func TestRepeatBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := NewRegistry()
	recs := make([]Record, 64)
	for i := range recs {
		o := uint64(i + 1)
		recs[i] = Record{Origin: transport.ContextID(o), Seq: 3, Forwarder: i%2 == 0, Partition: "p", GossipEP: o,
			Table: tbl("mpl", o, map[string]string{"partition": "p", "fabric": "f"})}
	}
	r.MergeAll(recs)
	for _, f := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		b := buffer.NewFormat(f, 64*64)
		EncodeRecords(b, recs)
		var bt Batch
		avg := testing.AllocsPerRun(100, func() {
			b.Rewind()
			if err := r.ReadBatch(b, &bt); err != nil {
				t.Fatal(err)
			}
			if r.MergeBatch(&bt) != 0 {
				t.Fatal("a repeated batch changed the registry")
			}
		})
		if avg != 0 {
			t.Errorf("merging a repeated %v batch of 64 records allocates %.1f times, want 0", f, avg)
		}
	}
}

// TestBatchWinnerHash pins the hash a record merged from a batch is held
// under: the one Merge computes from its canonical encoding, whether the
// batch was little-endian (hashed from the bytes it arrived in) or
// big-endian (encoded again).
func TestBatchWinnerHash(t *testing.T) {
	rec := Record{Origin: 7, Seq: 3, Forwarder: true, Partition: "p", GossipEP: 9,
		Table: tbl("mpl", 7, map[string]string{"partition": "p", "fabric": "f"})}
	want := recordHash(rec)
	for _, f := range []buffer.Format{buffer.LittleEndian, buffer.BigEndian} {
		b := buffer.NewFormat(f, 128)
		EncodeRecords(b, []Record{rec})
		r := NewRegistry()
		var bt Batch
		if err := r.ReadBatch(b, &bt); err != nil {
			t.Fatal(err)
		}
		if r.MergeBatch(&bt) != 1 {
			t.Fatalf("%v: the record was not applied", f)
		}
		if d, _ := r.Digest(0, 0); d.Entries[0].Hash != want {
			t.Errorf("%v: merged record hashes to %x, canonical %x", f, d.Entries[0].Hash, want)
		}
	}
}
