package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"nexus/internal/core"
)

// TestJoinLiveHeapPerContext pins what one joined context keeps alive: N =
// 200 scale contexts boot, join through one seed and settle, and the live
// heap and the live objects they hold after a forced collection, divided by
// N, must stay within budget. Every context holds the descriptor table of
// every peer, in its registry and its peer store, so a copy per holder shows
// up here as quadratic growth, and an object per attribute as a count that
// grows with the table. The budgets sit 12-15% over the 143 KB and 955
// objects measured when decoded tables began holding their attributes as
// one string (205 KB and 2 284 objects before).
func TestJoinLiveHeapPerContext(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under -race")
	}
	if testing.Short() {
		t.Skip("boots 200 contexts")
	}
	const (
		n          = 200
		budget     = 160 << 10
		objsBudget = 1070
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	scaleSeq++
	tag := fmt.Sprintf("heap-%d-%d", n, scaleSeq)
	ctxs := make([]*core.Context, 0, n)
	nodes := make([]*Node, 0, n)
	defer func() {
		for _, c := range ctxs {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ctx, node, err := newScaleContext(tag, NodeConfig{}, i)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, ctx)
		nodes = append(nodes, node)
	}
	seedTable, seedEP := nodes[0].Bootstrap()
	for _, node := range nodes[1:] {
		if err := node.Join(seedTable, seedEP); err != nil {
			t.Fatal(err)
		}
	}
	if rounds, ok := Settle(nodes, ctxs, 200); !ok {
		t.Fatalf("join did not converge in %d rounds", rounds)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perCtx := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	objs := (int64(after.HeapObjects) - int64(before.HeapObjects)) / n
	t.Logf("live heap after join: %d B and %d objects per context", perCtx, objs)
	if perCtx > budget {
		t.Errorf("live heap after join is %d B per context, budget %d B", perCtx, budget)
	}
	if objs > objsBudget {
		t.Errorf("live heap after join is %d objects per context, budget %d", objs, objsBudget)
	}
	runtime.KeepAlive(nodes)
}
