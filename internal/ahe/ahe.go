// Package ahe implements additively homomorphic encryption (§II-C).
//
// The scheme is DGK (Damgård–Geisler–Krøigaard), in the
// full-decryption variant with plaintext space Z_{2^l} decrypted via
// Pohlig–Hellman — the scheme the paper instantiates PEOS with
// (§VI-A3): "there is a crucial requirement for the AHE scheme: it
// should support a plaintext space of Z_{2^l} ... so that the
// decrypted result modulo 2^l looks like other reports." The
// PublicKey/PrivateKey interfaces and the optional ScratchOps, Pooler
// and PoolerN capabilities are what the rest of the module codes
// against.
//
// All arithmetic uses math/big; randomness is crypto/rand. Key
// generation is probabilistic-prime based, so use small key sizes in
// tests (512/1024 bits) and 3072 bits to match the paper's Table III.
package ahe

import "math/big"

// Ciphertext is one encrypted value: a single group element of Z_n.
type Ciphertext struct {
	v *big.Int
}

// Value exposes the raw group element (for serialization).
func (c *Ciphertext) Value() *big.Int { return new(big.Int).Set(c.v) }

// Clone returns an independent copy. The in-place ScratchOps kernels
// mutate their operands, so any ciphertext a caller retains across an
// evaluation pass (the cluster's per-collection fake cache) must hand
// the pass a clone.
func (c *Ciphertext) Clone() *Ciphertext { return &Ciphertext{v: new(big.Int).Set(c.v)} }

// PublicKey is the encryptor/evaluator side: users encrypt their last
// share with it, shufflers homomorphically add and rerandomize.
type PublicKey interface {
	// Scheme returns the scheme name ("DGK").
	Scheme() string
	// PlaintextBits returns l: plaintext semantics are Z_{2^l}.
	PlaintextBits() int
	// Encrypt encrypts m (reduced mod 2^l).
	Encrypt(m uint64) (*Ciphertext, error)
	// Add returns a ciphertext of the sum of the two plaintexts.
	Add(a, b *Ciphertext) *Ciphertext
	// AddPlain returns a ciphertext of (plaintext of a) + m.
	AddPlain(a *Ciphertext, m uint64) (*Ciphertext, error)
	// Rerandomize refreshes the ciphertext so it is unlinkable to its
	// input (multiplication by a fresh encryption of zero).
	Rerandomize(a *Ciphertext) (*Ciphertext, error)
	// CiphertextBytes returns the fixed serialized size, used by the
	// Table III communication accounting.
	CiphertextBytes() int
	// Serialize encodes a ciphertext into exactly CiphertextBytes()
	// bytes; Deserialize reverses it.
	Serialize(a *Ciphertext) []byte
	Deserialize(data []byte) (*Ciphertext, error)
}

// PrivateKey adds decryption.
type PrivateKey interface {
	PublicKey
	// Decrypt returns the plaintext in [0, 2^l).
	Decrypt(c *Ciphertext) (uint64, error)
}

// Scratch holds the per-worker big.Int accumulators the scratch
// variants of the hot public-key operations (ScratchOps) reuse across
// calls. One Scratch belongs to exactly one goroutine; distinct
// workers of a parallel loop each allocate their own via NewScratch.
type Scratch struct {
	e, acc, tmp big.Int
}

// ScratchOps is implemented by public keys whose hot homomorphic
// operations can run with caller-owned scratch state and an in-place
// destination — the allocation-flat kernels the worker-pooled
// oblivious-shuffle loops run on. The shuffle engine requires it of
// every key (internal/oblivious rejects a key without it).
type ScratchOps interface {
	PublicKey
	// NewScratch returns a fresh scratch area for one worker goroutine.
	NewScratch() *Scratch
	// AddPlainInto stores AddPlain(a, m) into dst. dst may alias a —
	// the in-place form the hot loops use.
	AddPlainInto(dst, a *Ciphertext, m uint64, sc *Scratch) error
	// RerandomizeInto stores Rerandomize(a) into dst. dst may alias a.
	RerandomizeInto(dst, a *Ciphertext, sc *Scratch) error
}

// Pooler is implemented by public keys that can precompute encryption
// randomizers off the critical path (DGK's background (r, h^r) pool).
// Call sites with an encryption-heavy phase — the PEOS user loop, the
// cluster client, the shufflers' rerandomize sites — start the pool
// for the phase's duration and stop it when done:
//
//	if pl, ok := pub.(ahe.Pooler); ok {
//		defer pl.StartRandomizerPool(0)()
//	}
//
// Starting is reference-counted and the returned stop is idempotent,
// so nested components sharing one key compose safely.
type Pooler interface {
	// StartRandomizerPool starts or joins the key's background
	// randomizer refiller with the given pool capacity (<1 selects
	// DefaultPoolSize) and returns the matching stop function.
	StartRandomizerPool(capacity int) (stop func())
}

// PoolerN extends Pooler with explicit refill concurrency, for sites
// whose drain rate scales with a worker count (the parallel shuffler
// loops): size the capacity with PoolSizeFor(workers) and let the
// refill side keep up. The first starter of a key's pool fixes both
// numbers; later joiners share it (same refcount semantics as Pooler).
type PoolerN interface {
	Pooler
	// StartRandomizerPoolN is StartRandomizerPool with the refiller
	// count exposed (<1 selects DefaultPoolRefillers, derived from
	// GOMAXPROCS).
	StartRandomizerPoolN(capacity, refillers int) (stop func())
}

// serializeFixed left-pads v to size bytes.
func serializeFixed(v *big.Int, size int) []byte {
	out := make([]byte, size)
	b := v.Bytes()
	if len(b) > size {
		panic("ahe: value exceeds fixed serialization size")
	}
	copy(out[size-len(b):], b)
	return out
}
