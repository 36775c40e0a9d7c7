package main

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
)

// This file generates every workload input from the seed alone. The library
// under test only ever sees these generated inputs; the same seed gives the
// same inputs, and proportions that set how much work an operation does
// (message-size mix, value-size classes) are exact rather than sampled, so
// two seeds differ in order and content but not in the amount of work.

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed int64, stream uint64) int64 {
	return int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 + stream))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sizeDeck returns a seeded shuffle of a deck holding each size `copies`
// times. Cycling the deck keeps the mix exact over every whole deck, so the
// mean message size — and with it the relation between messages per second
// and bytes per second — does not depend on the seed.
func sizeDeck(seed int64, sizes []int, copies int) []int {
	deck := make([]int, 0, len(sizes)*copies)
	for _, s := range sizes {
		for i := 0; i < copies; i++ {
			deck = append(deck, s)
		}
	}
	r := rand.New(rand.NewSource(subSeed(seed, 1)))
	r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// seededBytes returns n pseudo-random bytes for the given stream of the seed.
func seededBytes(seed int64, stream uint64, n int) []byte {
	p := make([]byte, n)
	r := rand.New(rand.NewSource(subSeed(seed, stream)))
	r.Read(p) // never fails (math/rand)
	return p
}

// checksum folds every byte of p into a 64-bit sum: 8-byte words are added
// into a rotating accumulator, the tail is folded byte-wise. It is cheap
// enough (a few GB/s) that verifying a bulk payload costs little next to
// moving it, and any flipped, dropped or reordered word changes it.
func checksum(p []byte) uint64 {
	var s uint64
	for len(p) >= 8 {
		s = bits.RotateLeft64(s, 7) + binary.LittleEndian.Uint64(p)
		p = p[8:]
	}
	for _, b := range p {
		s = bits.RotateLeft64(s, 7) + uint64(b)
	}
	return s
}

// RPC key/value workload parameters.
const (
	rpcKeys          = 10000 // key space; key 0 is the hottest
	rpcZipfS         = 1.1   // Zipf exponent of key popularity
	rpcPutShare      = 0.10  // share of unary calls that are puts
	rpcStreamEvery   = 50    // every n-th call is a streaming scan
	rpcStreamChunks  = 16    // chunks per scan
	rpcStreamChunkSz = 256   // value bytes per scan chunk
	rpcSmallMin      = 64    // small values are rpcSmallMin..rpcSmallMax bytes
	rpcSmallMax      = 1024
	rpcMediumSz      = 16 << 10
	rpcLargeSz       = 512 << 10 // past rpc.DefaultBulkThreshold: puts take the pull path
)

type rpcOpKind uint8

const (
	opGet rpcOpKind = iota
	opPut
	opScan
)

// rpcOp is one scheduled call.
type rpcOp struct {
	Kind rpcOpKind
	Key  uint32
}

// genRPCOps returns caller's schedule of n calls: every rpcStreamEvery-th is
// a scan, rpcPutShare of the rest are puts, keys are Zipf-distributed. A put
// only targets a key the caller owns (key mod callers == caller), so each
// key has one writer and a get can verify the exact version it must see.
func genRPCOps(seed int64, caller, callers, n int) []rpcOp {
	r := rand.New(rand.NewSource(subSeed(seed, 100+uint64(caller))))
	z := rand.NewZipf(r, rpcZipfS, 1, rpcKeys-1)
	ops := make([]rpcOp, n)
	for i := range ops {
		key := uint32(z.Uint64())
		switch {
		case (i+1)%rpcStreamEvery == 0:
			if key > rpcKeys-rpcStreamChunks {
				key = rpcKeys - rpcStreamChunks
			}
			ops[i] = rpcOp{Kind: opScan, Key: key}
		case r.Float64() < rpcPutShare:
			key = key - key%uint32(callers) + uint32(caller)
			if key >= rpcKeys {
				key -= uint32(callers)
			}
			ops[i] = rpcOp{Kind: opPut, Key: key}
		default:
			ops[i] = rpcOp{Kind: opGet, Key: key}
		}
	}
	return ops
}

// valueSize is the size class of a key's value: 1% of keys hold 512 KiB,
// 9% hold 16 KiB, the rest 64 B–1 KiB. It depends on the key only — not on
// the seed — so the hot keys (low numbers) have the same sizes on every run
// and the seed changes which keys are asked for, not how big the answers are.
func valueSize(key uint32) int {
	switch m := key % 100; {
	case m == 99:
		return rpcLargeSz
	case m >= 90:
		return rpcMediumSz
	}
	return rpcSmallMin + int(mix64(uint64(key))%(rpcSmallMax-rpcSmallMin+1))
}

const valueStride = 0x9e3779b97f4a7c15

// fillValue writes the value of (key, version) into dst: word j is
// base + j·stride, so content is a pure function of key and version and a
// reader can verify a reply without a copy of what was stored.
func fillValue(dst []byte, key, version uint32) {
	w := mix64(uint64(key)<<32 | uint64(version))
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, w)
		w += valueStride
		dst = dst[8:]
	}
	for i := range dst {
		dst[i] = byte(w >> (8 * uint(i)))
	}
}

// checkValue reports whether p is exactly the value of (key, version).
func checkValue(p []byte, key, version uint32) bool {
	w := mix64(uint64(key)<<32 | uint64(version))
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != w {
			return false
		}
		w += valueStride
		p = p[8:]
	}
	for i := range p {
		if p[i] != byte(w>>(8*uint(i))) {
			return false
		}
	}
	return true
}
