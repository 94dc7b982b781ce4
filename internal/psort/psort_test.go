package psort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomKV(n int, seed int64, keyMask uint64) []KV {
	rng := rand.New(rand.NewSource(seed))
	kv := make([]KV, n)
	for i := range kv {
		kv[i] = KV{Key: rng.Uint64() & keyMask, Idx: int32(i)}
	}
	return kv
}

func isSorted(kv []KV) bool {
	for i := 1; i < len(kv); i++ {
		if kv[i-1].Key > kv[i].Key {
			return false
		}
	}
	return true
}

func TestSortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 100, 4095, 4096, 50000} {
		kv := randomKV(n, int64(n), ^uint64(0)>>1)
		want := append([]KV(nil), kv...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		Sort(kv, 4)
		for i := range kv {
			if kv[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d: got %+v want %+v", n, i, kv[i], want[i])
			}
		}
	}
}

func TestSortIsPermutation(t *testing.T) {
	kv := randomKV(20000, 3, ^uint64(0)>>1)
	Sort(kv, 8)
	seen := make([]bool, len(kv))
	for _, e := range kv {
		if seen[e.Idx] {
			t.Fatalf("index %d appears twice", e.Idx)
		}
		seen[e.Idx] = true
	}
	if !isSorted(kv) {
		t.Fatal("output not sorted")
	}
}

func TestSortStability(t *testing.T) {
	// Many duplicate keys: equal keys must keep their original index order.
	kv := randomKV(30000, 5, 0xff) // only 256 distinct keys
	Sort(kv, 6)
	for i := 1; i < len(kv); i++ {
		if kv[i-1].Key == kv[i].Key && kv[i-1].Idx > kv[i].Idx {
			t.Fatalf("stability violated at %d: %+v then %+v", i, kv[i-1], kv[i])
		}
	}
}

func TestSortWorkerCounts(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 16, 0} {
		kv := randomKV(9999, 7, ^uint64(0)>>1)
		Sort(kv, w)
		if !isSorted(kv) {
			t.Fatalf("workers=%d: not sorted", w)
		}
	}
}

func TestSortAllEqualKeys(t *testing.T) {
	kv := make([]KV, 10000)
	for i := range kv {
		kv[i] = KV{Key: 42, Idx: int32(i)}
	}
	Sort(kv, 4)
	for i := range kv {
		if kv[i].Idx != int32(i) {
			t.Fatalf("equal-key input reordered at %d", i)
		}
	}
}

func TestSortQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		kv := make([]KV, len(keys))
		for i, k := range keys {
			kv[i] = KV{Key: k, Idx: int32(i)}
		}
		Sort(kv, 4)
		return isSorted(kv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermute(t *testing.T) {
	kv := []KV{{Key: 1, Idx: 2}, {Key: 2, Idx: 0}, {Key: 3, Idx: 1}}
	in := []string{"a", "b", "c"}
	out := make([]string, 3)
	Permute(kv, in, out)
	want := []string{"c", "a", "b"}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("Permute = %v, want %v", out, want)
		}
	}
}

func BenchmarkSort1M(b *testing.B) {
	src := randomKV(1<<20, 1, ^uint64(0)>>1)
	kv := make([]KV, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(kv, src)
		Sort(kv, 0)
	}
	b.SetBytes(int64(len(kv) * 12))
}

func BenchmarkSortSerial1M(b *testing.B) {
	src := randomKV(1<<20, 1, ^uint64(0)>>1)
	kv := make([]KV, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(kv, src)
		Sort(kv, 1)
	}
	b.SetBytes(int64(len(kv) * 12))
}

func TestSortStabilitySmallPath(t *testing.T) {
	// Below the radix threshold Sort takes the merge path; duplicate keys
	// must keep original order there too.
	kv := randomKV(2000, 11, 0xf) // 16 distinct keys, lots of duplicates
	Sort(kv, 4)
	for i := 1; i < len(kv); i++ {
		if kv[i-1].Key == kv[i].Key && kv[i-1].Idx > kv[i].Idx {
			t.Fatalf("stability violated at %d: %+v then %+v", i, kv[i-1], kv[i])
		}
	}
}

// refStable is the reference result: a stable stdlib sort by Key.
func refStable(kv []KV) []KV {
	want := append([]KV(nil), kv...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	return want
}

func TestSorterReuse(t *testing.T) {
	// One Sorter reused across calls of varying size must keep sorting
	// stably and must not shrink or reallocate its buffer once large enough.
	var s Sorter
	for i, n := range []int{60000, 333, 4096, 59999, 7, 0} {
		kv := randomKV(n, int64(100+i), 0xffff)
		want := refStable(kv)
		s.Sort(kv, 3)
		for j := range kv {
			if kv[j] != want[j] {
				t.Fatalf("call %d (n=%d): mismatch at %d", i, n, j)
			}
		}
		if cap(s.buf) < 60000 {
			t.Fatalf("call %d: buffer shrank to cap %d", i, cap(s.buf))
		}
	}
}

// TestSortNoCopyBackParity covers both pass-count parities explicitly: a key
// mask with an odd number of varying bytes and one with an even number must
// both land the sorted result in the caller slice.
func TestSortNoCopyBackParity(t *testing.T) {
	for _, mask := range []uint64{0xff_ffff, 0xffff_ffff, 0xff, ^uint64(0) >> 1} {
		for _, workers := range []int{1, 4} {
			var s Sorter
			kv := randomKV(20_000, int64(mask), mask)
			want := refStable(kv)
			s.Sort(kv, workers)
			for i := range kv {
				if kv[i] != want[i] {
					t.Fatalf("mask=%x w=%d: mismatch at %d", mask, workers, i)
				}
			}
		}
	}
}

// TestSorterAllocFree: a warm Sorter sorts without allocating, whatever the
// pass-count parity.
func TestSorterAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	for _, mask := range []uint64{0xff_ffff, 0xffff_ffff} { // odd and even pass counts
		var s Sorter
		kv := randomKV(50_000, 4, mask)
		s.Sort(kv, 1)
		if a := testing.AllocsPerRun(5, func() {
			for i := range kv {
				kv[i].Key = kv[len(kv)-1-i].Key
			}
			s.Sort(kv, 1)
		}); a != 0 {
			t.Errorf("mask=%x: warm Sort allocated %v, want 0", mask, a)
		}
	}
}
