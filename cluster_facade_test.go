package nexus_test

import (
	"testing"
	"time"

	"nexus"
)

// TestFacadeCluster boots two contexts through the public facade, attaches a
// gossip agent to each with AttachCluster, joins the second to the first, and
// shows that a lightweight startpoint resolves with no out-of-band table
// shipping — gossip replicated the descriptor tables.
func TestFacadeCluster(t *testing.T) {
	mk := func() *nexus.Context {
		ctx, err := nexus.NewContext(nexus.Options{
			Methods: []nexus.MethodConfig{
				{Name: "inproc", Params: nexus.Params{"exchange": "facade-cluster"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ctx.Close() })
		nexus.AttachCluster(ctx, nexus.ClusterNodeConfig{})
		return ctx
	}
	seed, joiner := mk(), mk()
	sn, jn := nexus.ClusterNodeOf(seed), nexus.ClusterNodeOf(joiner)
	if sn == nil || jn == nil {
		t.Fatal("AttachCluster did not attach gossip agents")
	}

	seedTable, seedEP := sn.Bootstrap()
	if err := jn.Join(seedTable, seedEP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sn.Registry().Live()) < 2 || len(jn.Registry().Live()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("membership did not converge: seed sees %d, joiner sees %d",
				len(sn.Registry().Live()), len(jn.Registry().Live()))
		}
		sn.Step()
		jn.Step()
		seed.Poll()
		joiner.Poll()
	}
	// One more round folds the just-merged records into the peer tables.
	sn.Step()
	jn.Step()

	// A lightweight startpoint from seed's endpoint resolves at the joiner
	// purely from gossip-installed peer tables.
	got := make(chan string, 1)
	ep := seed.NewEndpoint(nexus.WithHandler(func(_ *nexus.Endpoint, b *nexus.Buffer) {
		got <- b.String()
	}))
	enc := nexus.NewBuffer(64)
	ep.NewStartpoint().EncodeLite(enc)
	dec, err := nexus.BufferFromBytes(enc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := joiner.DecodeStartpoint(dec)
	if err != nil {
		t.Fatal(err)
	}
	b := nexus.NewBuffer(32)
	b.PutString("joined")
	if err := sp.RSR("", b); err != nil {
		t.Fatal(err)
	}
	if !seed.PollUntil(func() bool { return len(got) == 1 }, 5*time.Second) {
		t.Fatal("RSR not delivered")
	}
	if msg := <-got; msg != "joined" {
		t.Fatalf("payload = %q", msg)
	}

	// The membership view surfaces in observability snapshots.
	if view := seed.Observe().Cluster; len(view) != 2 {
		t.Fatalf("snapshot cluster view has %d rows, want 2", len(view))
	}

	// Leave: the tombstone propagates and the seed stops holding a peer
	// table for the departed context.
	jn.Leave()
	deadline = time.Now().Add(5 * time.Second)
	for {
		sn.Step()
		seed.Poll()
		if rec, ok := sn.Registry().Get(joiner.ID()); ok && rec.Tombstone {
			sn.Step() // fold the tombstone into the peer tables
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leave tombstone never reached the seed")
		}
	}
	if seed.PeerTable(joiner.ID()) != nil {
		t.Fatal("seed still holds a peer table for the departed context")
	}
}
