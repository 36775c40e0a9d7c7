package bufpool

import (
	"testing"
)

func TestGetLengthAndClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 4096, 4097, 1 << 20,
		1<<20 + 1, 3 << 19, 4<<20 + 64, maxSize} {
		p := Get(n)
		if len(p) != n {
			t.Fatalf("Get(%d): len = %d", n, len(p))
		}
		if cap(p) < n {
			t.Fatalf("Get(%d): cap = %d", n, cap(p))
		}
		// Capacity is the full size class.
		if c := cap(p); c != classSize(classFor(n)) {
			t.Fatalf("Get(%d): cap %d is not the class size %d", n, c, classSize(classFor(n)))
		}
		Put(p)
	}
}

func TestGetOversizeBypassesPool(t *testing.T) {
	n := maxSize + 1
	p := Get(n)
	if len(p) != n || cap(p) != n {
		t.Fatalf("len, cap = %d, %d, want %d", len(p), cap(p), n)
	}
	Put(p) // must not panic; oversize slices are dropped
}

// TestClassLayout checks the class table and both lookups over every size up
// to the top class: classFor(n) is the smallest class holding n, and
// coveredClass(n) — where Put files a slice of capacity n — is the largest
// class not above n.
func TestClassLayout(t *testing.T) {
	for c := 0; c < nClasses; c++ {
		want := 1 << (minShift + c)
		if c >= nPow2 {
			// Four steps per doubling past 1 MiB: 2^k·5/4, 6/4, 7/4, 2.
			j := c - nPow2
			want = (1 << (maxShift + j/4)) * (5 + j%4) / 4
		}
		if got := classSize(c); got != want {
			t.Fatalf("classSize(%d) = %d, want %d", c, got, want)
		}
	}
	if classSize(nClasses-1) != maxSize {
		t.Fatalf("top class %d, maxSize %d", classSize(nClasses-1), maxSize)
	}
	c := 0
	for n := 0; n <= maxSize; n++ {
		if n > classSize(c) {
			c++
		}
		if got := classFor(n); got != c {
			t.Fatalf("classFor(%d) = %d (size %d), want %d (size %d)", n, got, classSize(got), c, classSize(c))
		}
	}
	c = 0
	for n := 1 << minShift; n <= maxSize; n++ {
		if c+1 < nClasses && n >= classSize(c+1) {
			c++
		}
		if got := coveredClass(n); got != c {
			t.Fatalf("coveredClass(%d) = %d (size %d), want %d (size %d)", n, got, classSize(got), c, classSize(c))
		}
	}
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
		{1 << 20, nPow2 - 1}, {1<<20 + 1, nPow2}, {5 << 18, nPow2},
		{5<<18 + 1, nPow2 + 1}, {2 << 20, nPow2 + 3}, {4<<20 + 64, nPow2 + 8},
		{maxSize, nClasses - 1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	// Warm the class, then confirm the steady-state round trip does not
	// allocate — the property the RSR fast path depends on. 4 MiB + 64 B is
	// a bulk frame past the power-of-two classes.
	for _, n := range []int{256, 4<<20 + 64} {
		Put(Get(n))
		avg := testing.AllocsPerRun(100, func() {
			p := Get(n)
			Put(p)
		})
		if avg > 0 {
			t.Errorf("Get/Put(%d) allocates %.1f times per round trip, want 0", n, avg)
		}
	}
}
