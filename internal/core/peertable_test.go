package core

import (
	"bytes"
	"testing"

	"nexus/internal/buffer"
	"nexus/internal/obsv"
	"nexus/internal/transport"
)

// encodeTable returns a table's canonical encoding.
func encodeTable(t *transport.Table) []byte {
	b := buffer.New(128)
	t.Encode(b)
	return b.Bytes()
}

// TestSharedPeerTableNeverEdited pins the table ownership rule: one table
// registered with two contexts, as a static machine wires its nodes, is
// shared by both peer stores and by every link that resolves through them,
// and stays byte-identical however those links use it. A forwarder link
// (exclude set) filters the relay route out of its view, and a startpoint's
// caller reorders, trims and re-attributes the table Startpoint.Table hands
// out; neither reaches the registered table or the other context.
func TestSharedPeerTableNeverEdited(t *testing.T) {
	const (
		dest  = transport.ContextID(9001)
		relay = 77
	)
	h1, _ := scriptCtx(t, Options{}, "a", "b")
	h2, _ := scriptCtx(t, Options{}, "a", "b")
	shared := transport.NewTable(
		transport.Descriptor{Method: "b", Context: dest, Attrs: map[string]string{transport.AttrRelay: "77"}},
		transport.Descriptor{Method: "a", Context: dest, Attrs: map[string]string{"addr": "x"}},
		transport.Descriptor{Method: "b", Context: dest},
	)
	want := encodeTable(shared)
	h1.RegisterPeerTable(shared)
	h2.RegisterPeerTable(shared)

	fwd := h1.linkTo(dest, relay)
	if _, err := fwd.ensure(h1, obsv.TraceID{}); err != nil {
		t.Fatal(err)
	}
	if got := fwd.liveTable().Methods(); len(got) != 2 || got[0] != "a" {
		t.Errorf("forwarder link resolved %v, want the relay route through %d left out", got, relay)
	}
	if fwd.method() != "a" {
		t.Errorf("forwarder link selected %q, want a", fwd.method())
	}

	sp := h2.NewStartpointTo(dest, 1, nil)
	if m, err := sp.SelectMethod(); err != nil || m != "b" {
		t.Fatalf("lightweight startpoint selected %q, %v; want b", m, err)
	}
	tab := sp.Table()
	tab.Reorder("a")
	tab.Entries[0].Attrs["addr"] = "edited"
	tab.Remove("b")
	if sp.TableFor(dest) != tab {
		t.Error("TableFor returned a different table than Table")
	}

	if !bytes.Equal(encodeTable(shared), want) {
		t.Errorf("registered table changed: %v", shared.Entries)
	}
	for _, c := range []*Context{h1, h2} {
		if got := c.PeerTable(dest); got == nil || !bytes.Equal(encodeTable(got), want) {
			t.Errorf("context %d peer table is %v, want the registered table", c.ID(), got)
		}
	}
	other := h2.NewStartpointTo(dest, 2, nil)
	if m, err := other.SelectMethod(); err != nil || m != "b" {
		t.Errorf("a second startpoint selected %q, %v; the first one's edit leaked", m, err)
	}
}

// TestRefreshPeerTableAllocs pins that a gossip refresh of a known peer
// stores the caller's table: no copy, no allocation.
func TestRefreshPeerTableAllocs(t *testing.T) {
	c, _ := scriptCtx(t, Options{}, "a")
	tab := scriptTable(9001, "a")
	c.RefreshPeerTable(tab)
	if avg := testing.AllocsPerRun(100, func() { c.RefreshPeerTable(tab) }); avg != 0 {
		t.Errorf("RefreshPeerTable of a known peer allocates %.1f times, want 0", avg)
	}
}
