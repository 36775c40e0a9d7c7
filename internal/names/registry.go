package names

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
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
	var flags byte
	if r.Tombstone {
		flags |= 1
	}
	if r.Forwarder {
		flags |= 2
	}
	if r.Table != nil {
		flags |= 4
	}
	b.PutByte(flags)
	b.PutString(r.Partition)
	b.PutUint64(r.GossipEP)
	if r.Table != nil {
		r.Table.Encode(b)
	}
}

// decodeRecord unpacks a record encoded with encode.
func decodeRecord(b *buffer.Buffer) (Record, error) {
	r := Record{
		Origin: transport.ContextID(b.Uint64()),
		Seq:    b.Uint64(),
	}
	flags := b.Byte()
	if flags&^7 != 0 {
		return r, fmt.Errorf("names: decoding record: unknown flags %#x", flags)
	}
	r.Tombstone = flags&1 != 0
	r.Forwarder = flags&2 != 0
	r.Partition = b.String()
	r.GossipEP = b.Uint64()
	if err := b.Err(); err != nil {
		return r, fmt.Errorf("names: decoding record: %w", err)
	}
	if flags&4 != 0 {
		t, err := transport.DecodeTable(b)
		if err != nil {
			return r, fmt.Errorf("names: decoding record table: %w", err)
		}
		r.Table = t
	}
	return r, nil
}

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

// DecodeRecords unpacks a record batch encoded with EncodeRecords.
func DecodeRecords(b *buffer.Buffer) ([]Record, error) {
	n := int(b.Uint32())
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("names: decoding records: %w", err)
	}
	// A record is at least 8+8+1+4+8 bytes.
	if n > maxRecordBatch || n*29 > b.Remaining() {
		return nil, fmt.Errorf("names: record count %d cannot fit in %d bytes", n, b.Remaining())
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r, err := decodeRecord(b)
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
// how many records were applied. Origins new to the registry are gathered in
// order and merged into the slice in one pass (insert), not inserted one by
// one.
func (r *Registry) MergeAll(recs []Record) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	var fresh []stored // origins r.s lacks, ascending
	for _, rec := range recs {
		held := r.s
		i, ok := search(held, rec.Origin)
		if !ok {
			held = fresh
			if i, ok = search(held, rec.Origin); !ok {
				if fresh == nil {
					fresh = make([]stored, 0, len(recs))
				}
				fresh = slices.Insert(fresh, i, stored{})
				held = fresh
			}
		}
		if r.apply(&held[i], rec, ok) {
			applied++
		}
	}
	r.insert(fresh)
	return applied
}

// apply writes rec over cur — the entry held for rec's origin when held is
// set, a new one otherwise — if rec wins, keeping the fingerprint and the
// generation current.
func (r *Registry) apply(cur *stored, rec Record, held bool) bool {
	// A repeat — an older version, or an identical re-delivery — loses
	// whatever its content, so gossip's repeats are turned away before they
	// cost an encoding.
	if held && loses(rec, cur.rec) {
		return false
	}
	enc := rec.canonical()
	if held {
		// Same version and kind, different content: the held record is
		// encoded only now, for the byte tie-break.
		if rec.Seq == cur.rec.Seq && rec.Tombstone == cur.rec.Tombstone && bytes.Compare(enc, cur.rec.canonical()) <= 0 {
			return false
		}
		r.fp ^= fpMix(cur.rec.Origin, cur.rec.Seq, cur.hash)
	}
	h := fnv.New64a()
	h.Write(enc)
	r.gen++
	*cur = stored{rec: rec, hash: h.Sum64(), gen: r.gen}
	r.fp ^= fpMix(rec.Origin, rec.Seq, cur.hash)
	return true
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

// ChangedSince returns, sorted by origin, every record applied after
// generation gen, and the generation to pass next time; it moves exactly
// when a Merge applies, that is when a record's content changes. Starting
// from 0 returns every record. A poller that folds registry changes into
// other state thereby pays for what moved, not for the table, and needs no
// memory of its own of what it folded last time.
func (r *Registry) ChangedSince(gen uint64) (recs []Record, now uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if gen == r.gen {
		return nil, gen
	}
	for i := range r.s {
		if s := &r.s[i]; s.gen > gen {
			recs = append(recs, s.rec)
		}
	}
	return recs, r.gen
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
	es := d.Entries
	byOrigin := func(a, b DigestEntry) int { return cmp.Compare(a.Origin, b.Origin) }
	if !slices.IsSortedFunc(es, byOrigin) {
		es = slices.Clone(es)
		slices.SortStableFunc(es, byOrigin)
	}
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
			if (stale || diverged) && (maxDelta <= 0 || len(delta) < maxDelta) {
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

// RecordsFor returns the records held for the requested origins (capped at
// max), answering a want-list.
func (r *Registry) RecordsFor(origins []transport.ContextID, max int) []Record {
	out := make([]Record, 0, len(origins))
	r.mu.RLock()
	for _, o := range origins {
		if i, ok := search(r.s, o); ok {
			out = append(out, r.s[i].rec)
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	r.mu.RUnlock()
	return out
}
