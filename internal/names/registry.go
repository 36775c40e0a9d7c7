package names

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"nexus/internal/buffer"
	"nexus/internal/transport"
)

// This file grows the name service into a versioned peer/descriptor registry:
// the data structure under cluster-wide anti-entropy gossip. Each live
// context owns exactly one Record, versioned by a per-origin monotonic
// sequence number — no clocks anywhere — and deleted by publishing a
// tombstone under a higher sequence. Two registries that have seen the same
// set of records hold identical tables regardless of the order, duplication,
// or staleness of the deliveries, because Merge is a join on a total order:
// higher sequence wins, a tombstone beats a live record at the same
// sequence, and ties between same-kind records are broken by comparing
// their canonical encodings. That last rule is what makes "two contexts
// concurrently claim the same origin at the same version" converge instead
// of flapping.

// Record is one origin's registry entry: the descriptor table it advertises,
// or a tombstone marking it departed. Tables held by a registry are shared,
// not copied — callers must treat them as immutable.
type Record struct {
	// Origin is the context the record describes; only that context (or a
	// peer declaring it crashed) publishes new versions of it.
	Origin transport.ContextID
	// Seq is the origin's monotonic version counter. It orders the origin's
	// records without any clock: a joining context that finds an older
	// record (or its own tombstone) adopts that sequence plus one.
	Seq uint64
	// Tombstone marks the origin as departed; the table is absent.
	Tombstone bool
	// Forwarder advertises willingness to relay frames for third parties;
	// mesh route computation only routes through forwarders.
	Forwarder bool
	// Partition is the origin's partition tag, for display and diagnostics.
	Partition string
	// GossipEP is the endpoint id of the origin's gossip agent, so any peer
	// that learns the record can address anti-entropy traffic to it.
	GossipEP uint64
	// Table is the origin's advertised descriptor table (nil on tombstones).
	Table *transport.Table
}

// encode packs the record: fixed field order, and the table's own canonical
// layout. Equal records encode identically in a buffer of one byte order, so
// canonical, which fixes the order, doubles as the tie-break comparand and
// the digest hash input.
func (r Record) encode(b *buffer.Buffer) {
	b.PutUint64(uint64(r.Origin))
	b.PutUint64(r.Seq)
	b.PutByte(r.flags())
	b.PutString(r.Partition)
	b.PutUint64(r.GossipEP)
	if r.Table != nil {
		r.Table.Encode(b)
	}
}

// Record flag bits, one byte on the wire.
const (
	flagTombstone = 1
	flagForwarder = 2
	flagTable     = 4
)

// flags packs the record's flag byte.
func (r Record) flags() byte {
	var f byte
	if r.Tombstone {
		f |= flagTombstone
	}
	if r.Forwarder {
		f |= flagForwarder
	}
	if r.Table != nil {
		f |= flagTable
	}
	return f
}

// wireRecord is a record's fixed fields as read from its encoding, before its
// table: enough to judge the record against the one held for its origin.
// partition aliases the buffer it was read from.
type wireRecord struct {
	origin    transport.ContextID
	seq       uint64
	flags     byte
	partition []byte
	gossipEP  uint64
}

// readWireRecord reads a record's fixed fields, leaving b at its table.
func readWireRecord(b *buffer.Buffer) (wireRecord, error) {
	w := wireRecord{
		origin: transport.ContextID(b.Uint64()),
		seq:    b.Uint64(),
		flags:  b.Byte(),
	}
	if w.flags&^(flagTombstone|flagForwarder|flagTable) != 0 {
		return w, fmt.Errorf("names: decoding record: unknown flags %#x", w.flags)
	}
	w.partition = b.BytesView()
	w.gossipEP = b.Uint64()
	if err := b.Err(); err != nil {
		return w, fmt.Errorf("names: decoding record: %w", err)
	}
	return w, nil
}

// decode completes the record from its table's bytes at b. held is the
// partition of the record held for the origin, if any: a new version almost
// always keeps it, and then shares its string rather than copying another.
func (w wireRecord) decode(b *buffer.Buffer, held string) (Record, error) {
	r := Record{
		Origin:    w.origin,
		Seq:       w.seq,
		Tombstone: w.flags&flagTombstone != 0,
		Forwarder: w.flags&flagForwarder != 0,
		Partition: held,
		GossipEP:  w.gossipEP,
	}
	if string(w.partition) != held {
		r.Partition = string(w.partition)
	}
	if w.flags&flagTable != 0 {
		t, err := transport.DecodeTable(b)
		if err != nil {
			return r, fmt.Errorf("names: decoding record table: %w", err)
		}
		r.Table = t
	}
	return r, nil
}

// skip moves b past the record's table, validating it without allocating.
func (w wireRecord) skip(b *buffer.Buffer) error {
	if w.flags&flagTable == 0 {
		return nil
	}
	n, err := transport.TableLen(unread(b))
	if err != nil {
		return fmt.Errorf("names: decoding record table: %w", err)
	}
	b.Raw(n)
	return nil
}

// repeats reports whether the record is identical to cur, the record held
// for its origin, and if so how many table bytes to skip. The fields are
// compared as values and the table bytes with cur's table's encoding, in
// place; the table layout has no byte order, so a repeat is recognised from
// a sender of either order.
func (w wireRecord) repeats(cur *Record, table []byte) (int, bool) {
	if w.seq != cur.Seq || w.flags != cur.flags() || w.gossipEP != cur.GossipEP || string(w.partition) != cur.Partition {
		return 0, false
	}
	if cur.Table == nil {
		return 0, true
	}
	return cur.Table.EncodedPrefix(table)
}

// losesTo reports whether the record loses to cur, the record held for its
// origin, on its fixed fields alone: it is older, or a live record against a
// tombstone of the same version (loses' first two rules).
func (w wireRecord) losesTo(cur *Record) bool {
	return w.seq < cur.Seq || w.seq == cur.Seq && cur.Tombstone && w.flags&flagTombstone == 0
}

// unread returns b's bytes not yet read.
func unread(b *buffer.Buffer) []byte { return b.Bytes()[b.Len()-b.Remaining():] }

// equal reports whether two records are identical: equal exactly when their
// canonical encodings are, so Merge can turn a re-delivery away without
// encoding either. A nil table differs from an empty one (the encoding flags
// its presence).
func (r Record) equal(o Record) bool {
	if r.Origin != o.Origin || r.Seq != o.Seq || r.Tombstone != o.Tombstone ||
		r.Forwarder != o.Forwarder || r.Partition != o.Partition || r.GossipEP != o.GossipEP {
		return false
	}
	if r.Table == nil || o.Table == nil {
		return r.Table == o.Table
	}
	return r.Table == o.Table || r.Table.Equal(o.Table)
}

// EncodedLen is the size of the record's encoding: 29 fixed bytes, its
// partition and its table.
func (r Record) EncodedLen() int {
	n := 29 + len(r.Partition)
	if r.Table != nil {
		n += r.Table.EncodedLen()
	}
	return n
}

// canonical returns the record's canonical encoding. It is little-endian
// whatever the host's byte order, so contexts on hosts of either order hash
// a record alike and break a tie the same way.
func (r Record) canonical() []byte {
	b := buffer.NewFormat(buffer.LittleEndian, r.EncodedLen())
	r.encode(b)
	return b.Bytes()
}

// DigestEntry summarizes one record for an anti-entropy exchange: enough for
// the receiver to decide newer/older/divergent without shipping the table.
type DigestEntry struct {
	Origin transport.ContextID
	Seq    uint64
	Hash   uint64
}

// Digest is one bounded anti-entropy summary: the sender's digest entries
// for every record it holds with origin inside the [Lo, Hi] window. The
// window is circular over the 64-bit origin keyspace (Lo > Hi wraps), and
// rotates across rounds so a bounded digest still covers the whole table
// eventually. A window covering the full keyspace means the entry list is
// exhaustive.
type Digest struct {
	Lo, Hi  transport.ContextID
	Entries []DigestEntry
}

// covers reports whether origin falls inside the digest's circular window.
func (d Digest) covers(o transport.ContextID) bool {
	if d.Lo <= d.Hi {
		return o >= d.Lo && o <= d.Hi
	}
	return o >= d.Lo || o <= d.Hi
}

// maxDigestEntries bounds hostile digest lengths.
const maxDigestEntries = 1 << 16

// Encode packs the digest.
func (d Digest) Encode(b *buffer.Buffer) {
	b.PutUint64(uint64(d.Lo))
	b.PutUint64(uint64(d.Hi))
	b.PutUint32(uint32(len(d.Entries)))
	for _, e := range d.Entries {
		b.PutUint64(uint64(e.Origin))
		b.PutUint64(e.Seq)
		b.PutUint64(e.Hash)
	}
}

// DecodeDigest unpacks a digest into fresh storage.
func DecodeDigest(b *buffer.Buffer) (Digest, error) {
	var d Digest
	err := d.Decode(b)
	return d, err
}

// Decode unpacks a digest into d, validating the count against the bytes
// actually present. The entries land in d.Entries' storage when it has room
// for them, so a receiver that keeps a Digest as scratch decodes a digest no
// longer than the last without allocating.
func (d *Digest) Decode(b *buffer.Buffer) error {
	d.Lo = transport.ContextID(b.Uint64())
	d.Hi = transport.ContextID(b.Uint64())
	n := int(b.Uint32())
	if err := b.Err(); err != nil {
		return fmt.Errorf("names: decoding digest: %w", err)
	}
	if n > maxDigestEntries || n*24 > b.Remaining() {
		return fmt.Errorf("names: digest count %d cannot fit in %d bytes", n, b.Remaining())
	}
	if cap(d.Entries) < n {
		d.Entries = make([]DigestEntry, n)
	}
	d.Entries = d.Entries[:n]
	for i := range d.Entries {
		d.Entries[i] = DigestEntry{
			Origin: transport.ContextID(b.Uint64()),
			Seq:    b.Uint64(),
			Hash:   b.Uint64(),
		}
	}
	if err := b.Err(); err != nil {
		return fmt.Errorf("names: decoding digest entries: %w", err)
	}
	return nil
}

// EncodeRecords packs a record batch.
func EncodeRecords(b *buffer.Buffer, recs []Record) {
	b.PutUint32(uint32(len(recs)))
	for _, r := range recs {
		r.encode(b)
	}
}

// maxRecordBatch bounds hostile record-batch lengths.
const maxRecordBatch = 1 << 16

// readBatchLen reads a record batch's count, validated against the bytes
// present.
func readBatchLen(b *buffer.Buffer) (int, error) {
	n := int(b.Uint32())
	if err := b.Err(); err != nil {
		return 0, fmt.Errorf("names: decoding records: %w", err)
	}
	// A record is at least 8+8+1+4+8 bytes.
	if n > maxRecordBatch || n*29 > b.Remaining() {
		return 0, fmt.Errorf("names: record count %d cannot fit in %d bytes", n, b.Remaining())
	}
	return n, nil
}

// DecodeRecords unpacks a record batch encoded with EncodeRecords, every
// record in full. Gossip reads batches with Registry.ReadBatch instead,
// which decodes only the records that could change the registry;
// DecodeRecords is the reference it is tested against.
func DecodeRecords(b *buffer.Buffer) ([]Record, error) {
	n, err := readBatchLen(b)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		w, err := readWireRecord(b)
		if err != nil {
			return nil, err
		}
		r, err := w.decode(b, "")
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// stored is a registry entry with its content hash cached at merge time, so
// digest rounds never re-encode: at thousand-context scale a bounded digest
// touches hundreds of records per round, and recomputing FNV over a
// re-encoded table each time would dominate the round's cost. The encoding
// itself is not kept: only a same-version divergence, which Merge settles by
// comparing bytes, needs it again. gen is the registry generation the entry
// was written at, which is how ChangedSince finds what moved without a
// change log.
type stored struct {
	rec  Record
	hash uint64
	gen  uint64
}

// search returns the index of origin's entry in s, which ascends by origin,
// or the index it would be inserted at. It is slices.BinarySearchFunc
// written out, so that it inlines: it runs for every record merged.
func search(s []stored, origin transport.ContextID) (int, bool) {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].rec.Origin < origin {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(s) && s[i].rec.Origin == origin
}

// fpMix folds one record's identity into the registry fingerprint. XOR of
// per-record mixes makes the fingerprint order-independent and incrementally
// maintainable under replacement.
func fpMix(origin transport.ContextID, seq, hash uint64) uint64 {
	return hash ^ (uint64(origin) * 0x9e3779b97f4a7c15) ^ (seq * 0xbf58476d1ce4e5b9)
}

// Registry is the versioned membership/descriptor table a gossip agent
// maintains: one Record per origin, merged under the deterministic order
// described above. The records live in one slice sorted by origin; Merge
// inserts an origin the first time it sees one, and nothing removes one,
// because a departed origin keeps its tombstone. A lookup is a binary
// search, and every origin-ordered read (Live, Snapshot, ChangedSince,
// Digest, DeltaFor) is a walk of contiguous memory, never a sort or a hash
// lookup. All methods are safe for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	s   []stored // ascending by origin
	gen uint64   // bumped on every applied change; stamps stored.gen
	fp  uint64   // order-independent content fingerprint (Fingerprint)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Merge folds one record in and reports whether it changed the table. The
// outcome is independent of delivery order, duplication, and interleaving
// with stale versions: higher Seq wins; at equal Seq a tombstone beats a
// live record; and two same-kind records at the same Seq are ordered by
// their canonical encodings, so every registry picks the same winner.
func (r *Registry) Merge(rec Record) bool {
	return r.MergeAll([]Record{rec}) == 1
}

// loses reports whether rec loses to the held record cur without comparing
// encodings: it is older, a live record against a tombstone of the same
// version, or identical to it.
func loses(rec, cur Record) bool {
	switch {
	case rec.Seq != cur.Seq:
		return rec.Seq < cur.Seq
	case rec.Tombstone != cur.Tombstone:
		return !rec.Tombstone
	default:
		return rec.equal(cur)
	}
}

// MergeAll folds a batch in, record by record as Merge would, and reports
// how many records were applied.
func (r *Registry) MergeAll(recs []Record) int { return r.merge(recs, nil) }

// merge folds recs in, in order, and reports how many were applied. encs,
// when set, holds each record's canonical encoding (nil where unknown), so a
// winner is hashed without being encoded again. Origins new to the registry
// are gathered in order and merged into the slice in one pass (insert), not
// inserted one by one.
func (r *Registry) merge(recs []Record, encs [][]byte) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	var fresh []stored // origins r.s lacks, ascending
	for k, rec := range recs {
		held := r.s
		i, ok := search(held, rec.Origin)
		if !ok {
			held = fresh
			if i, ok = search(held, rec.Origin); !ok {
				if fresh == nil {
					fresh = make([]stored, 0, len(recs)-k)
				}
				fresh = slices.Insert(fresh, i, stored{})
				held = fresh
			}
		}
		var enc []byte
		if encs != nil {
			enc = encs[k]
		}
		if r.apply(&held[i], rec, enc, ok) {
			applied++
		}
	}
	r.insert(fresh)
	return applied
}

// apply writes rec over cur — the entry held for rec's origin when held is
// set, a new one otherwise — if rec wins, keeping the fingerprint and the
// generation current. enc is rec's canonical encoding, or nil to make it.
func (r *Registry) apply(cur *stored, rec Record, enc []byte, held bool) bool {
	// A repeat — an older version, or an identical re-delivery — loses
	// whatever its content, so gossip's repeats are turned away before they
	// cost an encoding.
	if held && loses(rec, cur.rec) {
		return false
	}
	if enc == nil {
		enc = rec.canonical()
	}
	if held {
		// Same version and kind, different content: the held record is
		// encoded only now, for the byte tie-break.
		if rec.Seq == cur.rec.Seq && rec.Tombstone == cur.rec.Tombstone && bytes.Compare(enc, cur.rec.canonical()) <= 0 {
			return false
		}
		r.fp ^= fpMix(cur.rec.Origin, cur.rec.Seq, cur.hash)
	}
	r.gen++
	*cur = stored{rec: rec, hash: fnv64a(enc), gen: r.gen}
	r.fp ^= fpMix(rec.Origin, rec.Seq, cur.hash)
	return true
}

// fnv64a is FNV-1a over p, as hash/fnv's New64a computes it, without a
// hash.Hash to allocate.
func fnv64a(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range p {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Batch is a record batch read by ReadBatch and judged against the registry
// from its bytes, waiting for MergeBatch. It holds only the records that could
// change the registry, decoded; the rest were skipped unread. A Batch is
// reusable: ReadBatch resets it, and its storage is kept across uses.
type Batch struct {
	recs  []Record
	encs  [][]byte // each record's received bytes when they are canonical, else nil
	first Record
	n     int
}

// Len reports how many records the batch's encoding held, judged or not.
func (bt *Batch) Len() int { return bt.n }

// First returns the batch's first record whole, however it was judged: the
// record held for its origin when the two are identical, otherwise the
// record decoded. Gossip puts the sender's own record first.
func (bt *Batch) First() Record { return bt.first }

// ReadBatch reads a batch packed by EncodeRecords into bt and judges each
// record against the registry before decoding it. A record identical to the
// one held (same fields, table bytes equal to the held table's encoding) is
// skipped, and one older than the held record, or a live record against a
// tombstone of the same version, has its table validated and skipped; only
// the records that could change the registry are decoded, tables included.
// When b is little-endian a decoded record's received bytes are its
// canonical encoding, and bt keeps them (aliasing b) for MergeBatch to hash,
// so b's bytes must outlive the MergeBatch call. A malformed record anywhere
// fails the whole batch, which then merges nothing.
//
// The judging runs under the read lock and MergeBatch under the write lock.
// A merge in between cannot turn a skipped record into a winner: a held
// record is only ever replaced by one after it in the merge order, which
// the skipped record was already at or before.
func (r *Registry) ReadBatch(b *buffer.Buffer, bt *Batch) error {
	bt.reset()
	n, err := readBatchLen(b)
	if err != nil {
		return err
	}
	wire := b.Format() == buffer.LittleEndian
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := 0; i < n; i++ {
		if err := r.readRecord(b, bt, i == 0, wire); err != nil {
			bt.reset()
			return err
		}
	}
	bt.n = n
	return nil
}

// readRecord reads one record of a batch into bt, judging it against the
// record held for its origin: a repeat or a loser is skipped, anything else
// decoded. The first record is decoded even when it loses, to be First. The
// caller holds r.mu for reading.
func (r *Registry) readRecord(b *buffer.Buffer, bt *Batch, first, wire bool) error {
	start := unread(b)
	w, err := readWireRecord(b)
	if err != nil {
		return err
	}
	var cur *Record
	var partition string
	if k, ok := search(r.s, w.origin); ok {
		cur = &r.s[k].rec
		if tl, same := w.repeats(cur, unread(b)); same {
			b.Raw(tl)
			if first {
				bt.first = *cur
			}
			return nil
		}
		if !first && w.losesTo(cur) {
			return w.skip(b)
		}
		partition = cur.Partition
	}
	rec, err := w.decode(b, partition)
	if err != nil {
		return err
	}
	if first {
		bt.first = rec
		if cur != nil && loses(rec, *cur) {
			return nil
		}
	}
	var enc []byte
	if wire {
		enc = start[:len(start)-b.Remaining()]
	}
	bt.recs = append(bt.recs, rec)
	bt.encs = append(bt.encs, enc)
	return nil
}

// MergeBatch folds in the records ReadBatch judged could change the
// registry, in order, and reports how many were applied: the count MergeAll
// of the whole decoded batch would report. It empties the batch.
func (r *Registry) MergeBatch(bt *Batch) int {
	applied := 0
	if len(bt.recs) > 0 {
		applied = r.merge(bt.recs, bt.encs)
	}
	bt.reset()
	return applied
}

// reset empties bt, keeping its storage but none of the tables or bytes it
// referred to.
func (bt *Batch) reset() {
	clear(bt.recs)
	clear(bt.encs)
	bt.recs, bt.encs = bt.recs[:0], bt.encs[:0]
	bt.first, bt.n = Record{}, 0
}

// insert merges fresh, ascending origins that r.s lacks, into r.s from the
// back, so every held record moves once however many origins arrive.
func (r *Registry) insert(fresh []stored) {
	if len(fresh) == 0 {
		return
	}
	i := len(r.s) - 1
	r.s = slices.Grow(r.s, len(fresh))[:len(r.s)+len(fresh)]
	for j, k := len(fresh)-1, len(r.s)-1; j >= 0; k-- {
		if i >= 0 && r.s[i].rec.Origin > fresh[j].rec.Origin {
			r.s[k] = r.s[i]
			i--
		} else {
			r.s[k] = fresh[j]
			j--
		}
	}
}

// Get returns the record for an origin.
func (r *Registry) Get(origin transport.ContextID) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i, ok := search(r.s, origin); ok {
		return r.s[i].rec, true
	}
	return Record{}, false
}

// Fingerprint returns an order-independent digest of the registry's full
// contents, maintained incrementally by Merge. Two registries with equal
// fingerprints and equal lengths hold the same records with overwhelming
// probability — the O(1) convergence probe the thousand-context scale
// harness polls every round, where pairwise Equal would be quadratic in
// cluster size.
func (r *Registry) Fingerprint() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fp
}

// Len reports the number of records held, tombstones included.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.s)
}

// Live returns every non-tombstone record, sorted by origin.
func (r *Registry) Live() []Record { return r.records(false, true) }

// Tombstones returns every tombstone record, sorted by origin.
func (r *Registry) Tombstones() []Record { return r.records(true, false) }

// Snapshot returns every record, tombstones included, sorted by origin.
func (r *Registry) Snapshot() []Record { return r.records(true, true) }

// records returns the records of the kinds asked for, sorted by origin.
func (r *Registry) records(tombstones, live bool) []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Record
	for i := range r.s {
		if rec := &r.s[i].rec; rec.Tombstone && tombstones || !rec.Tombstone && live {
			out = append(out, *rec)
		}
	}
	return out
}

// LiveOrigins appends the origin of every non-tombstone record to dst, in
// ascending order, and returns the extended slice. A caller that samples a
// few live peers per round reuses dst and copies no records.
func (r *Registry) LiveOrigins(dst []transport.ContextID) []transport.ContextID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.s {
		if rec := &r.s[i].rec; !rec.Tombstone {
			dst = append(dst, rec.Origin)
		}
	}
	return dst
}

// ChangedSince appends to dst, sorted by origin, every record applied after
// generation gen, and returns it with the generation to pass next time; it
// moves exactly when a Merge applies, that is when a record's content
// changes. Starting from 0 returns every record. A poller that folds
// registry changes into other state thereby pays for what moved, not for the
// table, needs no memory of its own of what it folded last time, and can
// fold into the same dst every time.
func (r *Registry) ChangedSince(dst []Record, gen uint64) (recs []Record, now uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if gen == r.gen {
		return dst, gen
	}
	for i := range r.s {
		if s := &r.s[i]; s.gen > gen {
			dst = append(dst, s.rec)
		}
	}
	return dst, r.gen
}

// Equal reports whether two registries hold identical records — the
// convergence predicate the gossip tests and FuzzGossipMerge assert.
func (r *Registry) Equal(o *Registry) bool {
	a, b := r.Snapshot(), o.Snapshot()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].canonical(), b[i].canonical()) {
			return false
		}
	}
	return true
}

// window picks what a digest of at most limit records starting at rotation
// index start covers: its bounds, the records it lists — head then tail, so
// the entries ascend even when the window wraps past the highest origin —
// and the index the next round starts at. When the whole table fits, the
// window spans the full keyspace, so the receiver knows the entry list is
// exhaustive; otherwise it tightly brackets the included origins
// (circularly) and successive rounds sweep the table. This is what keeps
// gossip rounds bounded at thousand-context scale: a round's digest never
// exceeds limit entries no matter how large the cluster grows.
func (r *Registry) window(start, limit int) (lo, hi transport.ContextID, head, tail []stored, next int) {
	n := len(r.s)
	if limit <= 0 || limit >= n {
		return 0, math.MaxUint64, nil, r.s, 0
	}
	start %= n
	end := start + limit
	if end <= n {
		return r.s[start].rec.Origin, r.s[end-1].rec.Origin, nil, r.s[start:end], end % n
	}
	end -= n
	return r.s[start].rec.Origin, r.s[end-1].rec.Origin, r.s[:end], r.s[start:], end
}

// Digest summarizes up to limit records starting at the given rotation index
// into the registry's origin order (see window), and returns the index where
// the next round should start.
func (r *Registry) Digest(start, limit int) (Digest, int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lo, hi, head, tail, next := r.window(start, limit)
	d := Digest{Lo: lo, Hi: hi, Entries: make([]DigestEntry, 0, len(head)+len(tail))}
	for _, part := range [2][]stored{head, tail} {
		for i := range part {
			s := &part[i]
			d.Entries = append(d.Entries, DigestEntry{Origin: s.rec.Origin, Seq: s.rec.Seq, Hash: s.hash})
		}
	}
	return d, next
}

// AppendDigest packs the digest Digest(start, limit) would return into b,
// exactly as Digest.Encode packs it, straight from the registry with no
// entry slice in between, and returns the index where the next round should
// start.
func (r *Registry) AppendDigest(b *buffer.Buffer, start, limit int) (next int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lo, hi, head, tail, next := r.window(start, limit)
	b.PutUint64(uint64(lo))
	b.PutUint64(uint64(hi))
	b.PutUint32(uint32(len(head) + len(tail)))
	for _, part := range [2][]stored{head, tail} {
		for i := range part {
			s := &part[i]
			b.PutUint64(uint64(s.rec.Origin))
			b.PutUint64(s.rec.Seq)
			b.PutUint64(s.hash)
		}
	}
	return next
}

// DeltaFor computes the responder half of a push-pull round: the records we
// hold inside the digest's window that the digest lacks, holds at a lower
// sequence, or holds divergently at the same sequence (capped at maxDelta,
// lowest origins first), plus the ascending origins where the digest is
// ahead of us — the want-list the requester answers with a push.
//
// It walks our records and the digest's entries side by side. Digest and
// AppendDigest emit entries in ascending origin order, wrapped windows
// included, but a decoded digest is not checked, so out-of-order entries are
// walked from a stably sorted copy. An origin listed more than once is
// judged by its last entry, and each of its entries ahead of us is wanted.
// A digest that agrees with the registry costs no allocation.
func (r *Registry) DeltaFor(d Digest, maxDelta int) (delta []Record, wants []transport.ContextID) {
	return r.AppendDeltaFor(nil, nil, d, maxDelta)
}

// AppendDeltaFor is DeltaFor appending to delta and wants, so a responder
// that keeps both as scratch answers a digest into the same storage every
// time.
func (r *Registry) AppendDeltaFor(delta []Record, wants []transport.ContextID, d Digest, maxDelta int) ([]Record, []transport.ContextID) {
	es := d.Entries
	byOrigin := func(a, b DigestEntry) int { return cmp.Compare(a.Origin, b.Origin) }
	if !slices.IsSortedFunc(es, byOrigin) {
		es = slices.Clone(es)
		slices.SortStableFunc(es, byOrigin)
	}
	base := len(delta)
	r.mu.RLock()
	defer r.mu.RUnlock()
	i := 0
	for k := range r.s {
		s := &r.s[k]
		o := s.rec.Origin
		for ; i < len(es) && es[i].Origin < o; i++ {
			wants = append(wants, es[i].Origin) // an origin we do not hold
		}
		j := i
		for j < len(es) && es[j].Origin == o {
			j++
		}
		for _, e := range es[i:j] {
			if e.Seq > s.rec.Seq {
				wants = append(wants, o)
			}
		}
		if d.covers(o) {
			stale := i == j || es[j-1].Seq < s.rec.Seq
			// Same version, different content: ship ours and ask for theirs;
			// Merge's tie-break settles both sides on the same winner.
			diverged := i < j && es[j-1].Seq == s.rec.Seq && es[j-1].Hash != s.hash
			if diverged {
				wants = append(wants, o)
			}
			if (stale || diverged) && (maxDelta <= 0 || len(delta)-base < maxDelta) {
				delta = append(delta, s.rec)
			}
		}
		i = j
	}
	for ; i < len(es); i++ {
		wants = append(wants, es[i].Origin)
	}
	return delta, wants
}

// RecordsFor appends to dst the records held for the requested origins
// (at most max of them), answering a want-list, and returns it.
func (r *Registry) RecordsFor(dst []Record, origins []transport.ContextID, max int) []Record {
	base := len(dst)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, o := range origins {
		if i, ok := search(r.s, o); ok {
			dst = append(dst, r.s[i].rec)
			if max > 0 && len(dst)-base == max {
				break
			}
		}
	}
	return dst
}
