package ahe

// Tests for the worker-pool support layer (DESIGN.md §14): the
// scratch-reusing in-place kernels behind ScratchOps, the fixed-base
// ExpInto variant, the multi-refiller randomizer pool behind PoolerN,
// the pool hit/miss accounting, and the allocation regression pins of
// the steady-state fold loops. CI runs this file under -race.

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"shuffledp/internal/rng"
)

// TestExpIntoMatchesExp holds the scratch variant of the fixed-base
// kernel bit-identical to Exp across the same exponent shapes, with the
// destination reused (dirty) between calls.
func TestExpIntoMatchesExp(t *testing.T) {
	p, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	mod := new(big.Int).Mul(p, q)
	base, err := rand.Int(rand.Reader, mod)
	if err != nil {
		t.Fatal(err)
	}
	const maxBits = 400
	tab := newFBTable(base, mod, maxBits)

	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(255),
		big.NewInt(256),
		new(big.Int).Lsh(big.NewInt(1), maxBits-1),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), maxBits), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(0xa5), 128),
	}
	for i := 0; i < 40; i++ {
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), maxBits))
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	var dst, tmp big.Int // deliberately reused dirty across iterations
	for _, e := range exps {
		got := tab.ExpInto(&dst, &tmp, e)
		if got == nil {
			t.Fatalf("ExpInto refused in-range exponent of %d bits", e.BitLen())
		}
		if got != &dst {
			t.Fatal("ExpInto returned a value other than dst")
		}
		if want := tab.Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("ExpInto mismatch at e=%v", e)
		}
	}
	if tab.ExpInto(&dst, &tmp, new(big.Int).Lsh(big.NewInt(1), maxBits)) != nil {
		t.Fatal("ExpInto accepted an exponent wider than maxBits")
	}
	if tab.ExpInto(&dst, &tmp, big.NewInt(-1)) != nil {
		t.Fatal("ExpInto accepted a negative exponent")
	}
}

// TestScratchOpsMatchAllocatingOps: AddPlainInto / RerandomizeInto —
// including the dst == a in-place form the shuffle loops use — must
// decrypt identically to the allocating AddPlain / Rerandomize, on the
// fast path and through the naive fallback, with one Scratch reused
// across every call.
func TestScratchOpsMatchAllocatingOps(t *testing.T) {
	for _, key := range conformanceKeys(t) {
		so, ok := PublicKey(key).(ScratchOps)
		if !ok {
			t.Fatal("DGK key does not implement ScratchOps")
		}
		mask := uint64(1)<<uint(key.PlaintextBits()) - 1
		if key.PlaintextBits() == 64 {
			mask = ^uint64(0)
		}
		r := rng.New(0x5c7a7c4)
		sc := so.NewScratch()
		for _, fast := range []bool{true, false} {
			key.SetFastPath(fast)
			for i := 0; i < 8; i++ {
				m := r.Uint64() & mask
				add := r.Uint64() & mask
				c, err := key.Encrypt(m)
				if err != nil {
					t.Fatal(err)
				}
				// In-place chain: add, then rerandomize, dst aliasing a.
				if err := so.AddPlainInto(c, c, add, sc); err != nil {
					t.Fatal(err)
				}
				if err := so.RerandomizeInto(c, c, sc); err != nil {
					t.Fatal(err)
				}
				got, err := key.Decrypt(c)
				if err != nil {
					t.Fatal(err)
				}
				if want := (m + add) & mask; got != want {
					t.Fatalf("fast=%v l=%d: in-place chain decrypts %d, want %d",
						fast, key.PlaintextBits(), got, want)
				}
				// Distinct-destination form, dst starting zero-valued.
				var out Ciphertext
				if err := so.AddPlainInto(&out, c, add, sc); err != nil {
					t.Fatal(err)
				}
				got, err = key.Decrypt(&out)
				if err != nil {
					t.Fatal(err)
				}
				if want := (m + 2*add) & mask; got != want {
					t.Fatalf("fast=%v l=%d: fresh-dst add decrypts %d, want %d",
						fast, key.PlaintextBits(), got, want)
				}
			}
		}
		key.SetFastPath(true)
	}
}

// TestRerandomizeIntoChangesCiphertext: the in-place rerandomize must
// actually refresh the group element (unlinkability), not just keep the
// plaintext.
func TestRerandomizeIntoChangesCiphertext(t *testing.T) {
	key := conformanceKeys(t)[0]
	so := PublicKey(key).(ScratchOps)
	sc := so.NewScratch()
	c, err := key.Encrypt(42)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Value()
	if err := so.RerandomizeInto(c, c, sc); err != nil {
		t.Fatal(err)
	}
	if before.Cmp(c.Value()) == 0 {
		t.Fatal("RerandomizeInto left the group element unchanged")
	}
}

// TestCiphertextClone: a clone decrypts identically and is unaffected
// by in-place mutation of the original — the property the cluster's
// fake cache depends on across retried attempts.
func TestCiphertextClone(t *testing.T) {
	key := conformanceKeys(t)[0]
	so := PublicKey(key).(ScratchOps)
	c, err := key.Encrypt(9)
	if err != nil {
		t.Fatal(err)
	}
	clone := c.Clone()
	if err := so.AddPlainInto(c, c, 5, so.NewScratch()); err != nil {
		t.Fatal(err)
	}
	got, err := key.Decrypt(clone)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("clone decrypts %d after mutating the original, want 9", got)
	}
}

// TestRandomizerPoolN: the multi-refiller pool keeps concurrent
// scratch-kernel workers on the pooled path, the hit/miss counters
// advance, and PoolSizeFor scales capacity with the worker count.
func TestRandomizerPoolN(t *testing.T) {
	key := conformanceKeys(t)[0]
	pn, ok := PublicKey(key).(PoolerN)
	if !ok {
		t.Fatal("DGK key does not implement PoolerN")
	}
	const workers = 4
	hits0, misses0 := key.RandomizerPoolStats()
	stop := pn.StartRandomizerPoolN(PoolSizeFor(workers), 2)
	defer stop()

	so := PublicKey(key).(ScratchOps)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := so.NewScratch()
			c, err := key.Encrypt(uint64(w))
			if err != nil {
				errs[w] = err
				return
			}
			for i := 0; i < 25; i++ {
				if err := so.RerandomizeInto(c, c, sc); err != nil {
					errs[w] = err
					return
				}
			}
			got, err := key.Decrypt(c)
			if err != nil {
				errs[w] = err
				return
			}
			if got != uint64(w) {
				errs[w] = errRoundTrip
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	hits1, misses1 := key.RandomizerPoolStats()
	if draws := (hits1 - hits0) + (misses1 - misses0); draws < workers*25 {
		t.Fatalf("counters recorded %d randomizer draws, want >= %d", draws, workers*25)
	}
	if hits1 == hits0 {
		t.Fatal("a running multi-refiller pool served zero hits")
	}
}

// TestPoolSizing pins the sizing helpers the call sites build on.
func TestPoolSizing(t *testing.T) {
	if got := PoolSizeFor(0); got != DefaultPoolSize {
		t.Fatalf("PoolSizeFor(0) = %d, want %d", got, DefaultPoolSize)
	}
	if got := PoolSizeFor(4); got != 4*DefaultPoolSize {
		t.Fatalf("PoolSizeFor(4) = %d, want %d", got, 4*DefaultPoolSize)
	}
	if got := PoolSizeFor(1 << 20); got != maxPoolSize {
		t.Fatalf("PoolSizeFor(1<<20) = %d, want the %d cap", got, maxPoolSize)
	}
	if r := DefaultPoolRefillers(); r < 1 || r > 4 {
		t.Fatalf("DefaultPoolRefillers() = %d, want 1..4", r)
	}
}

// TestScratchKernelAllocs is the allocation-regression pin of the
// steady-state parallel loops (no background pool runs here —
// AllocsPerRun counts every goroutine's allocations). Two pins:
//
//   - AddPlainInto, the fold-loop kernel (addPlainAll, splitEncrypted
//     stage B): measured at 1 alloc/op — math/big Mod's internal
//     quotient — with zero per-op ciphertext or scratch garbage.
//     Pinned at <= 3 (the allocating AddPlain costs ~3x more and any
//     reintroduced per-op object trips it).
//   - RerandomizeInto on its inline fixed-base fallback, the worst
//     case: crypto/rand's randomizer draw plus one Mod temporary per
//     8-bit window of the 160-bit exponent, ~55 measured. Pinned at
//     <= 80; the pooled path the cluster actually runs (pool hit →
//     one Mul + one Mod) costs ~2.
func TestScratchKernelAllocs(t *testing.T) {
	key := conformanceKeys(t)[0]
	so := PublicKey(key).(ScratchOps)
	sc := so.NewScratch()
	c, err := key.Encrypt(1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the scratch capacities and the lazily-built tables.
	for i := 0; i < 4; i++ {
		if err := so.AddPlainInto(c, c, uint64(i), sc); err != nil {
			t.Fatal(err)
		}
		if err := so.RerandomizeInto(c, c, sc); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; the plain test run enforces the bounds")
	}
	addAllocs := testing.AllocsPerRun(50, func() {
		if err := so.AddPlainInto(c, c, 3, sc); err != nil {
			t.Fatal(err)
		}
	})
	if addAllocs > 3 {
		t.Fatalf("AddPlainInto allocates %.1f/op, want <= 3", addAllocs)
	}
	rerAllocs := testing.AllocsPerRun(50, func() {
		if err := so.RerandomizeInto(c, c, sc); err != nil {
			t.Fatal(err)
		}
	})
	if rerAllocs > 80 {
		t.Fatalf("RerandomizeInto fallback allocates %.1f/op, want <= 80", rerAllocs)
	}
}
