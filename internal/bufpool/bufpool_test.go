package bufpool

import (
	"testing"
)

func TestGetLengthAndClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 4096, 4097, 1 << 20} {
		p := Get(n)
		if len(p) != n {
			t.Fatalf("Get(%d): len = %d", n, len(p))
		}
		if cap(p) < n {
			t.Fatalf("Get(%d): cap = %d", n, cap(p))
		}
		// Capacity is the full size class: a power of two ≥ the minimum.
		if c := cap(p); c&(c-1) != 0 || c < 1<<minShift {
			t.Fatalf("Get(%d): cap %d is not a size class", n, c)
		}
		Put(p)
	}
}

func TestGetOversizeBypassesPool(t *testing.T) {
	n := (1 << maxShift) + 1
	p := Get(n)
	if len(p) != n {
		t.Fatalf("len = %d, want %d", len(p), n)
	}
	Put(p) // must not panic; oversize slices are dropped
}

func TestRoundTripReuse(t *testing.T) {
	// A Put slice should come back from the pool for a same-class Get.
	// sync.Pool gives no hard guarantee, but with no GC in between and a
	// single goroutine this holds in practice; retry a few times to be safe.
	reused := false
	for attempt := 0; attempt < 10 && !reused; attempt++ {
		p := Get(100)
		p[0] = 0xA5
		addr := &p[0]
		Put(p)
		q := Get(80)
		reused = &q[0] == addr
		Put(q)
	}
	if !reused {
		t.Skip("pool never returned the recycled slice (GC interference?)")
	}
}

func TestPutForeignSliceJoinsCoveredClass(t *testing.T) {
	// A 96-byte-cap slice covers only the 64-byte class; after Put, a
	// 64-byte Get may receive it, but a 128-byte Get must never see cap<128.
	Put(make([]byte, 96))
	for i := 0; i < 100; i++ {
		q := Get(128)
		if cap(q) < 128 {
			t.Fatalf("Get(128) returned cap %d", cap(q))
		}
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, nClasses - 1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutAllocFree(t *testing.T) {
	// Warm the class, then confirm the steady-state round trip does not
	// allocate — the property the RSR fast path depends on.
	Put(Get(256))
	avg := testing.AllocsPerRun(100, func() {
		p := Get(256)
		Put(p)
	})
	if avg > 0 {
		t.Errorf("Get/Put allocates %.1f times per round trip, want 0", avg)
	}
}
