package frag

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReassemble drives a small-budget reassembler with a script of
// interleaved, reordered, duplicated, truncated, and hostile fragment
// sequences and checks the safety invariants the dispatch path relies on:
// Add never panics, and a completed payload is exactly the original bytes —
// corruption is never delivered, no matter what arrives in what order. (The
// script may replay a full fragment set after a completion, which starts a
// legitimate fresh message under the reused id; real senders never reuse
// ids, so at-most-once delivery is the sender's counter's job, not checked
// here.) The third canonical message is cut at unequal strides, as no
// conforming sender cuts, so it must never complete.
func FuzzReassemble(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 2, 1, 0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 128, 200, 255})
	f.Add(bytes.Repeat([]byte{7, 11, 13}, 20))
	// Every fragment of the unequal-stride message, in order, reversed, and
	// the odd one first.
	f.Add([]byte{2, 10, 18, 26, 34, 42, 50, 58})
	f.Add([]byte{58, 50, 42, 34, 26, 18, 10, 2})
	f.Add([]byte{18, 58, 2, 10, 26, 34, 42, 50})
	f.Fuzz(func(t *testing.T, script []byte) {
		r := New(Config{
			MaxMessage:    1 << 12,
			PerPeerBudget: 1 << 13,
			TTL:           time.Hour,
			MaxFragments:  16,
			MaxPartials:   4,
		})
		// Two canonical messages whose fragments the script replays in any
		// order; completions must reproduce these exact bytes.
		msgs := [3][]byte{
			bytes.Repeat([]byte{0xA5}, 700),
			[]byte("the quick brown fox jumps over the lazy dog"),
			bytes.Repeat([]byte("uneven"), 8),
		}
		const perMsg = 8
		chunks := [3][][]byte{splitInto(msgs[0], perMsg), splitInto(msgs[1], perMsg), nil}
		cuts := [perMsg + 1]int{0, 6, 12, 21, 27, 33, 39, 45, 48} // strides 6, 6, 9, 6, …, last 3
		for i := 0; i < perMsg; i++ {
			chunks[2] = append(chunks[2], msgs[2][cuts[i]:cuts[i+1]])
		}
		now := time.Unix(0, 0)
		for _, op := range script {
			now = now.Add(time.Duration(op%5) * time.Second)
			switch which := op % 8; {
			case which < 3:
				// Canonical fragment of message `which`, index from the op.
				m := int(which)
				idx := uint32(op/8) % perMsg
				payload, res, _ := r.Add(1, uint64(m), idx, perMsg, chunks[m][idx], now)
				if res == Complete && (m == 2 || !bytes.Equal(payload, msgs[m])) {
					t.Fatalf("message %d completed: %d bytes vs %d",
						m, len(payload), len(msgs[m]))
				}
			case which < 4:
				// Truncated/garbage chunk on its own message id: must never
				// interfere with the canonical messages.
				r.Add(1, 100+uint64(op), uint32(op)%4, 4, []byte{op}, now)
			case which < 6:
				// Hostile metadata: contradictory totals, out-of-range index,
				// oversized chunk against the tiny budgets.
				r.Add(2, 7, uint32(op), uint32(op%3), bytes.Repeat([]byte{op}, int(op)+1), now)
			default:
				r.Expire(now)
			}
		}
		if r.Partials() < 0 || r.BufferedBytes() < 0 {
			t.Fatalf("negative accounting: partials=%d bytes=%d", r.Partials(), r.BufferedBytes())
		}
	})
}
