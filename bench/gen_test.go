package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestRPCOpsSeeded(t *testing.T) {
	a := genRPCOps(1, 0, 2, 5000)
	b := genRPCOps(1, 0, 2, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and caller gave different schedules")
	}
	if reflect.DeepEqual(a, genRPCOps(2, 0, 2, 5000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, genRPCOps(1, 1, 2, 5000)) {
		t.Fatal("two callers of one seed got the same schedule")
	}
}

func TestRPCOpsShape(t *testing.T) {
	const n, callers = 50000, 2
	for caller := 0; caller < callers; caller++ {
		ops := genRPCOps(7, caller, callers, n)
		var puts, scans, hot int
		for i, op := range ops {
			if op.Key >= rpcKeys {
				t.Fatalf("op %d: key %d out of range", i, op.Key)
			}
			if op.Key < 10 {
				hot++
			}
			switch op.Kind {
			case opScan:
				scans++
				if (i+1)%rpcStreamEvery != 0 {
					t.Fatalf("op %d is a scan off the every-%d schedule", i, rpcStreamEvery)
				}
				if op.Key+rpcStreamChunks > rpcKeys {
					t.Fatalf("scan at %d runs past the key space", op.Key)
				}
			case opPut:
				puts++
				if int(op.Key)%callers != caller {
					t.Fatalf("caller %d puts key %d, which it does not own", caller, op.Key)
				}
			}
		}
		if scans != n/rpcStreamEvery {
			t.Errorf("%d scans, want %d", scans, n/rpcStreamEvery)
		}
		if share := float64(puts) / float64(n-scans); share < 0.09 || share > 0.11 {
			t.Errorf("put share %.3f, want about %.2f", share, rpcPutShare)
		}
		// Zipf(1.1) over 10k keys puts about two fifths of all draws on the
		// ten hottest keys; a uniform draw would put a thousandth there.
		if share := float64(hot) / float64(n); share < 0.35 {
			t.Errorf("ten hottest keys drew %.3f of the calls: keys are not skewed", share)
		}
	}
}

func TestSizeDeck(t *testing.T) {
	sizes := []int{256 << 10, 1 << 20, 4 << 20}
	a, b := sizeDeck(1, sizes, 2), sizeDeck(1, sizes, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different decks")
	}
	different := false
	for seed := int64(2); seed < 10 && !different; seed++ {
		different = !reflect.DeepEqual(a, sizeDeck(seed, sizes, 2))
	}
	if !different {
		t.Fatal("eight other seeds all gave the same order")
	}
	// Whatever the order, the mix is exact.
	sorted := append([]int(nil), sizeDeck(5, sizes, 2)...)
	sort.Ints(sorted)
	want := []int{256 << 10, 256 << 10, 1 << 20, 1 << 20, 4 << 20, 4 << 20}
	if !reflect.DeepEqual(sorted, want) {
		t.Fatalf("deck holds %v, want %v", sorted, want)
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, key := range []uint32{0, 7, 95, 99, 9999} {
		n := valueSize(key)
		p := make([]byte, n)
		fillValue(p, key, 3)
		if !checkValue(p, key, 3) {
			t.Fatalf("key %d: value does not verify against itself", key)
		}
		if checkValue(p, key, 4) || checkValue(p, key+1, 3) {
			t.Fatalf("key %d: value verifies against another key or version", key)
		}
		p[n-1] ^= 1
		if checkValue(p, key, 3) {
			t.Fatalf("key %d: a flipped last byte went unnoticed", key)
		}
	}
}

func TestValueSizeClasses(t *testing.T) {
	counts := map[string]int{}
	for key := uint32(0); key < rpcKeys; key++ {
		switch n := valueSize(key); {
		case n == rpcLargeSz:
			counts["large"]++
		case n == rpcMediumSz:
			counts["medium"]++
		case n >= rpcSmallMin && n <= rpcSmallMax:
			counts["small"]++
		default:
			t.Fatalf("key %d: size %d is in no class", key, n)
		}
	}
	want := map[string]int{"large": rpcKeys / 100, "medium": 9 * rpcKeys / 100, "small": 90 * rpcKeys / 100}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("size classes %v, want %v", counts, want)
	}
}

func TestChecksum(t *testing.T) {
	a := seededBytes(1, 20, 4099) // not a multiple of eight: the tail is folded too
	if !reflect.DeepEqual(a, seededBytes(1, 20, 4099)) {
		t.Fatal("same seed and stream gave different bytes")
	}
	sum := checksum(a)
	for _, i := range []int{0, 2048, 4098} {
		a[i] ^= 0x10
		if checksum(a) == sum {
			t.Fatalf("flipping byte %d left the checksum unchanged", i)
		}
		a[i] ^= 0x10
	}
	a[0], a[8] = a[8], a[0]
	if a[0] != a[8] && checksum(a) == sum {
		t.Fatal("swapping bytes of two words left the checksum unchanged")
	}
}
