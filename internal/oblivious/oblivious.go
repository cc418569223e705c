// Package oblivious implements the resharing-based oblivious shuffle of
// Laur, Willemson & Zhang (§II-C) and the paper's Encrypted Oblivious
// Shuffle (EOS, §VI-A3, Figure 2).
//
// r shufflers each hold one additive share vector of the n values.
// With t = floor(r/2)+1 "hiders" per round, the protocol runs one round
// per t-subset of shufflers (C(r, t) rounds): the r-t seekers reshare
// their vectors to the hiders, the hiders permute everything with a
// jointly agreed permutation, and then reshare back to all r parties.
// After all rounds, no coalition of r-t shufflers knows the composite
// permutation.
//
// EOS strengthens this: one of the r share vectors is encrypted under
// the server's additively homomorphic key, so even all r shufflers
// colluding cannot reconstruct the values — yet the shares can still be
// split, accumulated and permuted, processed under AHE (Figure 2).
//
// The protocol has one implementation: RunParty, one shuffler's view
// of every round. Run executes a whole shuffle in process by running
// RunParty for each shuffler over an in-memory mesh; internal/cluster
// runs the same RunParty over TCP between shuffler nodes.
package oblivious

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

// Config parameterizes a shuffle run.
type Config struct {
	// Mod is the share ring Z_{2^l}.
	Mod secretshare.Modulus
	// Source provides the shufflers' randomness. Every shuffler draws
	// from its own stream: a seeded *rng.Rand is split once per
	// shuffler, in shuffler order, so seeded runs are reproducible; any
	// other Source (secretshare.Crypto in production) is shared by the
	// shufflers behind a mutex.
	Source secretshare.Source
	// Pub is the server's AHE key. It is required for every state,
	// since any shuffler can become the ciphertext holder, and it must
	// implement ahe.ScratchOps.
	Pub ahe.PublicKey
	// Meter optionally accounts communication and computation per
	// shuffler ("shuffler-0", "shuffler-1", ...): 8 B per plaintext
	// word, Pub.CiphertextBytes() per ciphertext and 32 B per
	// permutation seed sent, and each shuffler's wall time minus the
	// time it spent waiting for its peers.
	Meter *transport.Meter
	// SkipRerandomize omits the per-element ciphertext refresh after
	// each permutation and split. The paper's prototype accounts only
	// homomorphic additions for the shufflers (Table III); this knob
	// reproduces that cost model. It weakens unlinkability: a party
	// seeing the same ciphertext before and after a round can track
	// that position, so leave it off outside benchmarks.
	SkipRerandomize bool
	// Workers fans each shuffler's per-element AHE passes (rerandomize,
	// encrypted split, plaintext fold) out over this many goroutines in
	// contiguous order-preserving chunks; <= 1 runs them serially.
	// Every draw from a shuffler's Source happens in element order
	// regardless of Workers, so the share plaintexts — and therefore
	// the estimates — are bit-identical at every setting for a fixed
	// seed; only the crypto/rand rerandomizer nonces differ (DESIGN.md
	// §14).
	Workers int
}

// State is the shufflers' joint state: party j holds Plain[j], except
// the EncHolder (if any), who holds Enc.
type State struct {
	// Plain[j] is shuffler j's plaintext share vector (nil for the
	// encrypted holder).
	Plain [][]uint64
	// Enc is the single AHE-encrypted share vector, held by
	// Plain[EncHolder]'s owner. Nil for a plain oblivious shuffle.
	Enc []*ahe.Ciphertext
	// EncHolder is the index of the shuffler holding Enc, or -1.
	EncHolder int
}

// NumParties returns r.
func (st *State) NumParties() int { return len(st.Plain) }

// Len returns the vector length n.
func (st *State) Len() int {
	if st.EncHolder >= 0 {
		return len(st.Enc)
	}
	for _, p := range st.Plain {
		if p != nil {
			return len(p)
		}
	}
	return 0
}

func (st *State) validate(cfg Config) error {
	r := len(st.Plain)
	if r < 2 {
		return errors.New("oblivious: need at least 2 shufflers")
	}
	n := st.Len()
	for j, p := range st.Plain {
		if j == st.EncHolder {
			if p != nil {
				return fmt.Errorf("oblivious: encrypted holder %d also has a plaintext vector", j)
			}
			continue
		}
		if len(p) != n {
			return fmt.Errorf("oblivious: shuffler %d vector has length %d, want %d", j, len(p), n)
		}
	}
	if st.EncHolder >= 0 {
		if st.EncHolder >= r {
			return errors.New("oblivious: EncHolder out of range")
		}
		if len(st.Enc) != n {
			return errors.New("oblivious: encrypted vector length mismatch")
		}
	} else if st.Enc != nil {
		return errors.New("oblivious: Enc set but EncHolder = -1")
	}
	if cfg.Pub == nil {
		return errors.New("oblivious: Config.Pub is required (any shuffler can become the ciphertext holder)")
	}
	if cfg.Source == nil {
		return errors.New("oblivious: Config.Source is required")
	}
	return nil
}

// Hiders returns t = floor(r/2)+1, the hider count (§II-C).
func Hiders(r int) int { return r/2 + 1 }

// Combinations enumerates all t-subsets of [0, r) in lexicographic
// order — the hide-and-seek partitions.
func Combinations(r, t int) [][]int {
	if t < 0 || t > r {
		return nil
	}
	var out [][]int
	comb := make([]int, t)
	for i := range comb {
		comb[i] = i
	}
	for {
		out = append(out, append([]int(nil), comb...))
		// Advance.
		i := t - 1
		for i >= 0 && comb[i] == r-t+i {
			i--
		}
		if i < 0 {
			return out
		}
		comb[i]++
		for j := i + 1; j < t; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
}

func shufflerName(j int) string { return fmt.Sprintf("shuffler-%d", j) }

// Run executes the oblivious shuffle (EOS when the state carries an
// encrypted vector) in process, mutating st in place. It runs one
// RunParty per shuffler, each on its own goroutine, over an in-memory
// mesh — the same per-party round code the networked cluster runs —
// and writes the parties' outputs back into st. On return the share
// vectors represent the same multiset of values in a permuted order,
// and (for EOS) EncHolder points at the final ciphertext holder. If a
// party fails, the mesh closes so no peer waits for it forever, and
// Run returns that party's error.
func Run(st *State, cfg Config) error {
	if err := st.validate(cfg); err != nil {
		return err
	}
	if st.Len() == 0 {
		return nil
	}
	r := st.NumParties()
	srcs := partySources(cfg.Source, r)
	m := newMesh(r, cfg.Meter, cfg.Pub.CiphertextBytes())
	plain := make([][]uint64, r)
	enc := make([][]*ahe.Ciphertext, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		pcfg := PartyConfig{
			Index: j, Parties: r, Mod: cfg.Mod, Source: srcs[j], Pub: cfg.Pub,
			SkipRerandomize: cfg.SkipRerandomize, Workers: cfg.Workers,
		}
		port := &meshPort{m: m, me: j}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inPlain []uint64
			var inEnc []*ahe.Ciphertext
			if j == st.EncHolder {
				inEnc = st.Enc
			} else {
				inPlain = st.Plain[j]
			}
			start := time.Now()
			var err error
			plain[j], enc[j], err = RunParty(pcfg, port, inPlain, inEnc)
			cfg.Meter.AddCPU(shufflerName(j), time.Since(start)-port.blocked)
			if err != nil {
				m.fail(err)
			}
		}()
	}
	wg.Wait()
	if m.err != nil {
		return m.err
	}
	st.Plain, st.Enc, st.EncHolder = plain, nil, -1
	for j, e := range enc {
		if e != nil {
			st.Enc, st.EncHolder = e, j
		}
	}
	return nil
}

// partySources gives each of the r parties its own randomness: r
// Split streams of a seeded *rng.Rand, taken in party order, or the
// shared Source behind a mutex. Parallel draws from one unsynchronized
// stream would make seeded runs nondeterministic, and production
// randomness is never replaced by a 64-bit-seeded generator.
func partySources(src secretshare.Source, r int) []secretshare.Source {
	out := make([]secretshare.Source, r)
	if seeded, ok := src.(*rng.Rand); ok {
		for j := range out {
			out[j] = seeded.Split()
		}
		return out
	}
	shared := &lockedSource{src: src}
	for j := range out {
		out[j] = shared
	}
	return out
}

// lockedSource serializes draws from a Source shared by concurrent
// parties.
type lockedSource struct {
	mu  sync.Mutex
	src secretshare.Source
}

// Uint64 implements secretshare.Source.
func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

// splitPlain additively splits vec into k share vectors.
func splitPlain(vec []uint64, k int, cfg Config) [][]uint64 {
	return secretshare.SplitVector(vec, k, cfg.Mod, cfg.Source)
}

// splitEncrypted splits an encrypted vector into k-1 uniform plaintext
// vectors and one ciphertext remainder: rem_i = enc_i - sum(parts_i),
// computed homomorphically and rerandomized. Stage A (the
// deterministic Source draws) runs serially in element order no
// matter what cfg.Workers says — the bit-identity invariant — and
// stage B (the AHE bill, whose only randomness is crypto/rand) fans
// out over the workers. The remainder reuses the input ciphertext
// objects as its buffers, so the engine-owned vector is transformed
// in place and the parallel path allocates no fresh ciphertexts.
func splitEncrypted(enc []*ahe.Ciphertext, k int, cfg Config) (parts [][]uint64, rem []*ahe.Ciphertext, err error) {
	n := len(enc)
	parts = make([][]uint64, k-1)
	for i := range parts {
		parts[i] = make([]uint64, n)
	}
	// Stage A: draw all shares and the per-element correction in
	// element order, before any worker starts.
	negSum := make([]uint64, n)
	for i := 0; i < n; i++ {
		var sum uint64
		for j := range parts {
			s := cfg.Mod.Random(cfg.Source)
			parts[j][i] = s
			sum = cfg.Mod.Add(sum, s)
		}
		negSum[i] = cfg.Mod.Neg(sum)
	}
	// Stage B: subtract and rerandomize, chunked across the workers.
	rem = make([]*ahe.Ciphertext, n)
	copy(rem, enc)
	so := cfg.Pub.(ahe.ScratchOps)
	err = parFor(n, cfg.Workers, func(_, lo, hi int) error {
		sc := so.NewScratch()
		for i := lo; i < hi; i++ {
			if err := so.AddPlainInto(rem[i], rem[i], negSum[i], sc); err != nil {
				return err
			}
			if !cfg.SkipRerandomize {
				if err := so.RerandomizeInto(rem[i], rem[i], sc); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return parts, rem, nil
}

func addInto(dst, src []uint64, mod secretshare.Modulus) {
	for i := range dst {
		dst[i] = mod.Add(dst[i], src[i])
	}
}

// addPlainAll folds a plaintext vector into a ciphertext vector,
// reducing each addend into the share ring first. The fold is
// deterministic given its inputs, so the worker fan-out is a pure
// latency win; the ciphertexts are updated in place through
// per-worker scratch.
func addPlainAll(enc []*ahe.Ciphertext, plain []uint64, mod secretshare.Modulus, pub ahe.PublicKey, workers int) error {
	so := pub.(ahe.ScratchOps)
	return parFor(len(enc), workers, func(_, lo, hi int) error {
		sc := so.NewScratch()
		for i := lo; i < hi; i++ {
			if err := so.AddPlainInto(enc[i], enc[i], mod.Reduce(plain[i]), sc); err != nil {
				return err
			}
		}
		return nil
	})
}

// rerandomizeAll refreshes every ciphertext in place. Its randomness is
// all crypto/rand (pool or inline), so chunk order across workers
// cannot influence any plaintext.
func rerandomizeAll(enc []*ahe.Ciphertext, pub ahe.PublicKey, workers int) error {
	so := pub.(ahe.ScratchOps)
	return parFor(len(enc), workers, func(_, lo, hi int) error {
		sc := so.NewScratch()
		for i := lo; i < hi; i++ {
			if err := so.RerandomizeInto(enc[i], enc[i], sc); err != nil {
				return err
			}
		}
		return nil
	})
}

func applyPermUint64(vec []uint64, perm []int) []uint64 {
	out := make([]uint64, len(vec))
	for i, p := range perm {
		out[i] = vec[p]
	}
	return out
}

func applyPermCipher(vec []*ahe.Ciphertext, perm []int) []*ahe.Ciphertext {
	out := make([]*ahe.Ciphertext, len(vec))
	for i, p := range perm {
		out[i] = vec[p]
	}
	return out
}

// Reveal reconstructs the shuffled values: the server decrypts the
// ciphertext vector (if any) and sums all share vectors mod 2^l.
// It does not mutate st.
func Reveal(st *State, mod secretshare.Modulus, priv ahe.PrivateKey) ([]uint64, error) {
	return RevealParallel(st, mod, priv, 1)
}

// RevealParallel is Reveal with the AHE decryptions fanned out over
// `workers` goroutines — the paper's server parallelizes exactly this
// phase ("the decryptions is done in parallel ... we use 32 threads",
// §VII-D). workers < 1 uses GOMAXPROCS.
func RevealParallel(st *State, mod secretshare.Modulus, priv ahe.PrivateKey, workers int) ([]uint64, error) {
	n := st.Len()
	out := make([]uint64, n)
	for j, p := range st.Plain {
		if j == st.EncHolder {
			continue
		}
		addInto(out, p, mod)
	}
	if st.EncHolder < 0 {
		return out, nil
	}
	if priv == nil {
		return nil, errors.New("oblivious: encrypted state requires the private key to reveal")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := parFor(n, workers, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			m, err := priv.Decrypt(st.Enc[i])
			if err != nil {
				return err
			}
			out[i] = mod.Add(out[i], m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
