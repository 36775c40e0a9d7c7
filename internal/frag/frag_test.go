package frag

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"nexus/internal/bufpool"
)

var t0 = time.Unix(1000, 0)

// splitInto cuts payload into n roughly equal chunks.
func splitInto(payload []byte, n int) [][]byte {
	chunks := make([][]byte, n)
	size := (len(payload) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * size
		hi := min(lo+size, len(payload))
		chunks[i] = payload[lo:hi]
	}
	return chunks
}

func TestReassembleInOrder(t *testing.T) {
	r := New(Config{})
	payload := bytes.Repeat([]byte("abcdefg"), 100)
	chunks := splitInto(payload, 4)
	for i := 0; i < 3; i++ {
		got, res, _ := r.Add(1, 42, uint32(i), 4, chunks[i], t0)
		if res != Stored || got != nil {
			t.Fatalf("fragment %d: res=%v payload=%v, want Stored", i, res, got != nil)
		}
	}
	got, res, _ := r.Add(1, 42, 3, 4, chunks[3], t0)
	if res != Complete {
		t.Fatalf("last fragment: res=%v, want Complete", res)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled payload differs: %d bytes vs %d", len(got), len(payload))
	}
	if r.Partials() != 0 || r.BufferedBytes() != 0 {
		t.Errorf("state not released after completion: partials=%d bytes=%d", r.Partials(), r.BufferedBytes())
	}
}

func TestReassembleOutOfOrderAndDuplicates(t *testing.T) {
	r := New(Config{})
	payload := []byte("0123456789abcdef")
	chunks := splitInto(payload, 4)
	order := []uint32{2, 0, 3}
	for _, i := range order {
		if _, res, _ := r.Add(9, 7, i, 4, chunks[i], t0); res != Stored {
			t.Fatalf("fragment %d: res=%v, want Stored", i, res)
		}
	}
	if _, res, _ := r.Add(9, 7, 2, 4, chunks[2], t0); res != Duplicate {
		t.Fatalf("repeated fragment: res=%v, want Duplicate", res)
	}
	got, res, _ := r.Add(9, 7, 1, 4, chunks[1], t0)
	if res != Complete || !bytes.Equal(got, payload) {
		t.Fatalf("out-of-order completion failed: res=%v got=%q", res, got)
	}
}

func TestInvalidFragments(t *testing.T) {
	r := New(Config{MaxFragments: 8})
	cases := []struct {
		name         string
		index, total uint32
		chunk        []byte
	}{
		{"zero total", 0, 0, []byte("x")},
		{"index out of range", 5, 5, []byte("x")},
		{"too many fragments", 0, 9, []byte("x")},
		{"empty chunk", 0, 2, nil},
	}
	for _, c := range cases {
		if _, res, _ := r.Add(1, 1, c.index, c.total, c.chunk, t0); res != Invalid {
			t.Errorf("%s: res=%v, want Invalid", c.name, res)
		}
	}
	// A total disagreeing with earlier fragments of the same message.
	if _, res, _ := r.Add(1, 2, 0, 3, []byte("x"), t0); res != Stored {
		t.Fatalf("setup fragment: res=%v", res)
	}
	if _, res, _ := r.Add(1, 2, 1, 4, []byte("y"), t0); res != Invalid {
		t.Errorf("total mismatch: res=%v, want Invalid", res)
	}
	if r.Partials() != 1 {
		t.Errorf("mismatch dropped existing partial: partials=%d, want 1", r.Partials())
	}
}

func TestPerMessageSizeCap(t *testing.T) {
	r := New(Config{MaxMessage: 10})
	if _, res, _ := r.Add(1, 1, 0, 2, bytes.Repeat([]byte{1}, 8), t0); res != Stored {
		t.Fatalf("first chunk: res=%v", res)
	}
	if _, res, _ := r.Add(1, 1, 1, 2, bytes.Repeat([]byte{2}, 8), t0); res != TooLarge {
		t.Fatalf("overflowing chunk: res=%v, want TooLarge", res)
	}
	if r.Partials() != 0 {
		t.Errorf("oversized message not dropped whole: partials=%d", r.Partials())
	}
}

func TestPerPeerBudget(t *testing.T) {
	r := New(Config{MaxMessage: 100, PerPeerBudget: 150})
	if _, res, _ := r.Add(1, 1, 0, 2, bytes.Repeat([]byte{1}, 90), t0); res != Stored {
		t.Fatalf("msg 1: res=%v", res)
	}
	// A second partial from the same peer pushes past the budget...
	if _, res, _ := r.Add(1, 2, 0, 2, bytes.Repeat([]byte{2}, 90), t0); res != OverBudget {
		t.Fatalf("msg 2 over budget: res=%v, want OverBudget", res)
	}
	// ...but another peer has its own budget.
	if _, res, _ := r.Add(2, 3, 0, 2, bytes.Repeat([]byte{3}, 90), t0); res != Stored {
		t.Fatalf("other peer: res=%v, want Stored", res)
	}
}

func TestMaxPartialsEvictsOldest(t *testing.T) {
	r := New(Config{MaxPartials: 2})
	r.Add(1, 1, 0, 2, []byte("old"), t0)
	r.Add(1, 2, 0, 2, []byte("mid"), t0.Add(time.Second))
	_, res, evicted := r.Add(1, 3, 0, 2, []byte("new"), t0.Add(2*time.Second))
	if res != Stored || evicted != 1 {
		t.Fatalf("third partial: res=%v evicted=%d, want Stored/1", res, evicted)
	}
	// Message 1 (the oldest) is gone: completing it now restarts it instead.
	if _, res, _ := r.Add(1, 1, 1, 2, []byte("tail"), t0.Add(2*time.Second)); res != Stored {
		t.Errorf("evicted message's fragment: res=%v, want Stored (fresh partial)", res)
	}
}

func TestExpire(t *testing.T) {
	r := New(Config{TTL: time.Second})
	r.Add(1, 1, 0, 2, []byte("a"), t0)
	r.Add(2, 2, 0, 2, []byte("b"), t0.Add(500*time.Millisecond))
	if n := r.Expire(t0.Add(900 * time.Millisecond)); n != 0 {
		t.Fatalf("early expire dropped %d", n)
	}
	if n := r.Expire(t0.Add(1100 * time.Millisecond)); n != 1 {
		t.Fatalf("first expire dropped %d, want 1", n)
	}
	if n := r.Expire(t0.Add(2 * time.Second)); n != 1 {
		t.Fatalf("second expire dropped %d, want 1", n)
	}
	if r.Partials() != 0 {
		t.Errorf("partials=%d after full expiry", r.Partials())
	}
	// Expired state is gone for good: the sender must start over.
	if _, res, _ := r.Add(1, 1, 1, 2, []byte("late"), t0.Add(3*time.Second)); res != Stored {
		t.Errorf("fragment after expiry: res=%v, want Stored (fresh partial)", res)
	}
}

func TestChunkIsCopied(t *testing.T) {
	r := New(Config{})
	chunk := []byte("mutated-after-add")
	r.Add(1, 1, 0, 2, chunk, t0)
	for i := range chunk {
		chunk[i] = 0
	}
	got, res, _ := r.Add(1, 1, 1, 2, []byte("!"), t0)
	if res != Complete {
		t.Fatalf("res=%v", res)
	}
	if !bytes.Equal(got[:17], []byte("mutated-after-add")) {
		t.Errorf("reassembler aliased the caller's chunk: %q", got)
	}
}

func TestLastFragmentFirst(t *testing.T) {
	r := New(Config{})
	payload := bytes.Repeat([]byte("0123456789"), 10) // 100 B: 4 × 30 B + 10 B
	chunks := splitInto(payload, 4)
	if _, res, _ := r.Add(1, 1, 3, 4, chunks[3], t0); res != Stored {
		t.Fatalf("last fragment first: res=%v, want Stored", res)
	}
	if got := r.BufferedBytes(); got != len(chunks[3]) {
		t.Fatalf("held last fragment charged %d bytes, want %d", got, len(chunks[3]))
	}
	for _, i := range []uint32{1, 0} {
		if _, res, _ := r.Add(1, 1, i, 4, chunks[i], t0); res != Stored {
			t.Fatalf("fragment %d: res=%v, want Stored", i, res)
		}
	}
	// The stride is known: the whole stride × total buffer is charged.
	if got, want := r.BufferedBytes(), 4*len(chunks[0]); got != want {
		t.Fatalf("reserved %d bytes, want %d", got, want)
	}
	got, res, _ := r.Add(1, 1, 2, 4, chunks[2], t0)
	if res != Complete || !bytes.Equal(got, payload) {
		t.Fatalf("res=%v payload=%q, want Complete %q", res, got, payload)
	}
	if r.Partials() != 0 || r.BufferedBytes() != 0 {
		t.Errorf("state not released: partials=%d bytes=%d", r.Partials(), r.BufferedBytes())
	}
}

func TestStrideViolationsAreInvalid(t *testing.T) {
	r := New(Config{})
	payload := []byte("aaaabbbbccccdd")
	chunks := splitInto(payload, 4) // stride 4, last 2
	if _, res, _ := r.Add(1, 1, 0, 4, chunks[0], t0); res != Stored {
		t.Fatalf("fragment 0: res=%v", res)
	}
	before := r.BufferedBytes()
	for _, c := range []struct {
		name  string
		index uint32
		chunk []byte
	}{
		{"short non-last fragment", 1, []byte("bbb")},
		{"long non-last fragment", 1, []byte("bbbbb")},
		{"last fragment longer than the stride", 3, []byte("ddddd")},
	} {
		if _, res, _ := r.Add(1, 1, c.index, 4, c.chunk, t0); res != Invalid {
			t.Errorf("%s: res=%v, want Invalid", c.name, res)
		}
		if r.Partials() != 1 || r.BufferedBytes() != before {
			t.Fatalf("%s: partial state changed: partials=%d bytes=%d, want 1, %d",
				c.name, r.Partials(), r.BufferedBytes(), before)
		}
	}
	// A held last fragment longer than the stride a later fragment sets:
	// the later fragment is the one refused.
	if _, res, _ := r.Add(1, 2, 3, 4, []byte("ddddd"), t0); res != Stored {
		t.Fatalf("held last: res=%v", res)
	}
	if _, res, _ := r.Add(1, 2, 0, 4, []byte("aaaa"), t0); res != Invalid {
		t.Errorf("stride shorter than the held last fragment: res=%v, want Invalid", res)
	}
	// The original message is intact and still completes.
	for i := uint32(1); i < 4; i++ {
		got, res, _ := r.Add(1, 1, i, 4, chunks[i], t0)
		if i < 3 && res != Stored {
			t.Fatalf("fragment %d: res=%v", i, res)
		}
		if i == 3 && (res != Complete || !bytes.Equal(got, payload)) {
			t.Fatalf("completion: res=%v payload=%q", res, got)
		}
	}
}

// TestReservationChargedUpFront is the amplification regression: one
// fragment claiming a total × stride buffer beyond the per-peer budget is
// refused before the buffer is taken, instead of committing up to MaxMessage
// of memory on the strength of one small fragment.
func TestReservationChargedUpFront(t *testing.T) {
	r := New(Config{PerPeerBudget: 64 << 10})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, res, _ := r.Add(1, 1, 0, 4096, make([]byte, 1<<10), t0)
	runtime.ReadMemStats(&after)
	if res != OverBudget {
		t.Fatalf("res=%v, want OverBudget (a 4096 × 1 KiB reservation against a 64 KiB budget)", res)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("refusing the fragment allocated %d bytes", grew)
	}
	if r.Partials() != 0 || r.BufferedBytes() != 0 {
		t.Errorf("refused message left state: partials=%d bytes=%d", r.Partials(), r.BufferedBytes())
	}
	// Within the budget the same shape is accepted and charged in full.
	if _, res, _ := r.Add(1, 2, 0, 32, make([]byte, 1<<10), t0); res != Stored || r.BufferedBytes() != 32<<10 {
		t.Errorf("32 × 1 KiB: res=%v charged %d, want Stored, %d", res, r.BufferedBytes(), 32<<10)
	}
}

// TestAccountingReturnsToZero: every way a partial message ends without
// completing — dropped as too large, expired, evicted — gives its whole
// reservation back.
func TestAccountingReturnsToZero(t *testing.T) {
	chunk := bytes.Repeat([]byte{1}, 100)
	partial := func(r *Reassembler, src, msg uint64, at time.Time) {
		t.Helper()
		if _, res, _ := r.Add(src, msg, 0, 4, chunk, at); res != Stored || r.BufferedBytes() == 0 {
			t.Fatalf("partial %d: res=%v bytes=%d", msg, res, r.BufferedBytes())
		}
	}
	r := New(Config{MaxMessage: 350})
	partial(r, 1, 1, t0)
	if _, res, _ := r.Add(1, 1, 3, 4, chunk, t0); res != TooLarge {
		t.Fatalf("400 B message against a 350 B cap: res=%v", res)
	}
	if r.BufferedBytes() != 0 {
		t.Errorf("after drop: %d bytes buffered", r.BufferedBytes())
	}

	r = New(Config{TTL: time.Second})
	partial(r, 1, 1, t0)
	if r.Expire(t0.Add(2*time.Second)) != 1 || r.BufferedBytes() != 0 {
		t.Errorf("after expiry: %d bytes buffered", r.BufferedBytes())
	}

	r = New(Config{MaxPartials: 1})
	partial(r, 1, 1, t0)
	if _, res, evicted := r.Add(1, 2, 3, 4, chunk[:10], t0); res != Stored || evicted != 1 {
		t.Fatalf("second partial: res=%v evicted=%d", res, evicted)
	}
	if r.BufferedBytes() != 10 {
		t.Errorf("after eviction: %d bytes buffered, want the survivor's 10", r.BufferedBytes())
	}
	r.Expire(t0.Add(time.Hour))
	if r.BufferedBytes() != 0 {
		t.Errorf("after the survivor expired: %d bytes buffered", r.BufferedBytes())
	}
}

// TestReassembleAllocs pins the allocations of one reassembled 1 MiB + 20 B
// message in 58 KiB fragments (the bulk_rudp shape) once the pool is warm:
// the partial message and its index table. Fragments land in the pooled
// payload buffer; nothing is allocated per fragment or per byte.
func TestReassembleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const size, chunk = 1<<20 + 20, 58 << 10
	const total = (size + chunk - 1) / chunk
	data := bytes.Repeat([]byte{0x5A}, size)
	r := New(Config{})
	var id uint64
	var bad AddResult = Complete
	reassemble := func() {
		id++
		for i := 0; i < total; i++ {
			payload, res, _ := r.Add(1, id, uint32(i), total, data[i*chunk:min((i+1)*chunk, size)], t0)
			if res == Complete {
				if len(payload) != size {
					bad = Invalid
				}
				bufpool.Put(payload)
			} else if res != Stored {
				bad = res
			}
		}
	}
	reassemble()
	allocs := testing.AllocsPerRun(20, reassemble)
	if bad != Complete {
		t.Fatalf("reassembly failed: %v", bad)
	}
	if allocs != 2 {
		t.Errorf("one reassembled message allocates %.1f times, want exactly 2", allocs)
	}
}
