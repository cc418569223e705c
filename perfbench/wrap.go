package main

import (
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shuffledp/internal/ahe"
)

// The traced run observes the program only through hooks it already
// exposes: connections and listeners it accepts from the caller, the
// dial function of cluster nodes, and the AHE key it is handed. Every
// wrapper forwards to the wrapped value and keeps its code path: the
// conn wrappers embed net.Conn, so deadlines reach the real socket,
// and the key wrappers forward ScratchOps, Pooler and PoolerN, so the
// program takes the same scratch-kernel and randomizer-pool branches
// as with the bare key.

// spanCtx is the span a wrapped call reports as its parent, set by the
// driver goroutine that causes the calls.
type spanCtx struct {
	parent, group atomic.Uint64
}

func (c *spanCtx) set(parent, group uint64) {
	c.parent.Store(parent)
	c.group.Store(group)
}

// linkMeter accounts one class of connections while tracing is on:
// bytes each way, and the time writers spent inside Write.
type linkMeter struct {
	read, written atomic.Int64
	writeNs       atomic.Int64
}

// meteredConn is a net.Conn whose Read and Write are accounted.
type meteredConn struct {
	net.Conn
	tr  *tracer
	m   *linkMeter
	ctx *spanCtx
}

// Read forwards to the wrapped connection, counting the bytes read.
func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.enabled() {
		c.m.read.Add(int64(n))
	}
	return n, err
}

// Write forwards to the wrapped connection inside a transport.write
// span, counting the bytes and the time spent blocked.
func (c *meteredConn) Write(p []byte) (int, error) {
	sp := c.tr.open("transport.write", c.ctx.parent.Load(), c.ctx.group.Load())
	n, err := c.Conn.Write(p)
	if d := c.tr.close(sp); sp.id != 0 {
		c.m.written.Add(int64(n))
		c.m.writeNs.Add(int64(d))
	}
	return n, err
}

// meteredListener wraps every accepted connection.
type meteredListener struct {
	net.Listener
	tr  *tracer
	m   *linkMeter
	ctx *spanCtx
}

// Accept returns the next connection, wrapped.
func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, tr: l.tr, m: l.m, ctx: l.ctx}, nil
}

// AHE operations timed by the key wrappers.
const (
	opEncrypt = iota
	opAddPlain
	opRerandomize
	opDecrypt
	numOps
)

var opNames = [numOps]string{"encrypt", "add_plain", "rerandomize", "decrypt"}
var opSpans = [numOps]string{"ahe.encrypt", "ahe.add_plain", "ahe.rerandomize", "ahe.decrypt"}

// aheOps records the timed key calls of one role while tracing is on.
type aheOps struct {
	tr   *tracer
	ctx  *spanCtx
	mu   sync.Mutex
	durs [numOps]durations
}

func (o *aheOps) begin(op int) openSpan {
	return o.tr.open(opSpans[op], o.ctx.parent.Load(), o.ctx.group.Load())
}

func (o *aheOps) end(op int, sp openSpan) {
	if sp.id == 0 {
		return
	}
	d := o.tr.close(sp)
	o.mu.Lock()
	o.durs[op] = append(o.durs[op], d)
	o.mu.Unlock()
}

// snapshot copies the recorded durations.
func (o *aheOps) snapshot() [numOps]durations {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out [numOps]durations
	for i := range out {
		out[i] = append(durations(nil), o.durs[i]...)
	}
	return out
}

// tracedPub forwards every method of a DGK public key, timing the
// homomorphic operations.
type tracedPub struct {
	k   *ahe.DGKPublicKey
	ops *aheOps
}

// Scheme forwards to the wrapped key.
func (w *tracedPub) Scheme() string { return w.k.Scheme() }

// PlaintextBits forwards to the wrapped key.
func (w *tracedPub) PlaintextBits() int { return w.k.PlaintextBits() }

// CiphertextBytes forwards to the wrapped key.
func (w *tracedPub) CiphertextBytes() int { return w.k.CiphertextBytes() }

// Modulus forwards to the wrapped key.
func (w *tracedPub) Modulus() *big.Int { return w.k.Modulus() }

// SetFastPath forwards to the wrapped key.
func (w *tracedPub) SetFastPath(on bool) { w.k.SetFastPath(on) }

// Add forwards to the wrapped key.
func (w *tracedPub) Add(a, b *ahe.Ciphertext) *ahe.Ciphertext { return w.k.Add(a, b) }

// Serialize forwards to the wrapped key.
func (w *tracedPub) Serialize(a *ahe.Ciphertext) []byte { return w.k.Serialize(a) }

// Deserialize forwards to the wrapped key.
func (w *tracedPub) Deserialize(data []byte) (*ahe.Ciphertext, error) {
	return w.k.Deserialize(data)
}

// NewScratch forwards to the wrapped key.
func (w *tracedPub) NewScratch() *ahe.Scratch { return w.k.NewScratch() }

// StartRandomizerPool forwards to the wrapped key.
func (w *tracedPub) StartRandomizerPool(capacity int) (stop func()) {
	return w.k.StartRandomizerPool(capacity)
}

// StartRandomizerPoolN forwards to the wrapped key.
func (w *tracedPub) StartRandomizerPoolN(capacity, refillers int) (stop func()) {
	return w.k.StartRandomizerPoolN(capacity, refillers)
}

// RandomizerPoolStats forwards to the wrapped key.
func (w *tracedPub) RandomizerPoolStats() (hits, misses uint64) {
	return w.k.RandomizerPoolStats()
}

// Encrypt forwards to the wrapped key inside an ahe.encrypt span.
func (w *tracedPub) Encrypt(m uint64) (*ahe.Ciphertext, error) {
	sp := w.ops.begin(opEncrypt)
	c, err := w.k.Encrypt(m)
	w.ops.end(opEncrypt, sp)
	return c, err
}

// AddPlain forwards to the wrapped key inside an ahe.add_plain span.
func (w *tracedPub) AddPlain(a *ahe.Ciphertext, m uint64) (*ahe.Ciphertext, error) {
	sp := w.ops.begin(opAddPlain)
	c, err := w.k.AddPlain(a, m)
	w.ops.end(opAddPlain, sp)
	return c, err
}

// Rerandomize forwards to the wrapped key inside an ahe.rerandomize
// span.
func (w *tracedPub) Rerandomize(a *ahe.Ciphertext) (*ahe.Ciphertext, error) {
	sp := w.ops.begin(opRerandomize)
	c, err := w.k.Rerandomize(a)
	w.ops.end(opRerandomize, sp)
	return c, err
}

// AddPlainInto forwards to the wrapped key inside an ahe.add_plain
// span.
func (w *tracedPub) AddPlainInto(dst, a *ahe.Ciphertext, m uint64, sc *ahe.Scratch) error {
	sp := w.ops.begin(opAddPlain)
	err := w.k.AddPlainInto(dst, a, m, sc)
	w.ops.end(opAddPlain, sp)
	return err
}

// RerandomizeInto forwards to the wrapped key inside an
// ahe.rerandomize span.
func (w *tracedPub) RerandomizeInto(dst, a *ahe.Ciphertext, sc *ahe.Scratch) error {
	sp := w.ops.begin(opRerandomize)
	err := w.k.RerandomizeInto(dst, a, sc)
	w.ops.end(opRerandomize, sp)
	return err
}

// tracedPriv adds the timed Decrypt of a DGK private key.
type tracedPriv struct {
	tracedPub
	priv *ahe.DGKPrivateKey
}

func newTracedPriv(priv *ahe.DGKPrivateKey, ops *aheOps) *tracedPriv {
	return &tracedPriv{tracedPub: tracedPub{k: &priv.DGKPublicKey, ops: ops}, priv: priv}
}

// Decrypt forwards to the wrapped key inside an ahe.decrypt span.
func (w *tracedPriv) Decrypt(c *ahe.Ciphertext) (uint64, error) {
	sp := w.ops.begin(opDecrypt)
	m, err := w.priv.Decrypt(c)
	w.ops.end(opDecrypt, sp)
	return m, err
}

// aheSummary merges the op timings of several roles.
type aheSummary struct {
	durs [numOps]durations
	busy time.Duration // total timed op time
}

func summarize(roles ...*aheOps) aheSummary {
	var s aheSummary
	for _, r := range roles {
		snap := r.snapshot()
		for op := range snap {
			s.durs[op] = append(s.durs[op], snap[op]...)
			s.busy += snap[op].sum()
		}
	}
	return s
}

// counts returns how many calls of each operation were timed.
func (o *aheOps) counts() [numOps]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	var c [numOps]int
	for op := range c {
		c[op] = len(o.durs[op])
	}
	return c
}

func opCounts(roles ...*aheOps) [numOps]int {
	var c [numOps]int
	for _, r := range roles {
		rc := r.counts()
		for op := range c {
			c[op] += rc[op]
		}
	}
	return c
}

// addAHEMetrics reports per-op latency over the traced phase, and calls
// per word (n+nr words) in its first collection or Run: a count fixed
// by the protocol and the seed, not by how many rounds fit the phase.
func addAHEMetrics(m map[string]float64, all aheSummary, first [numOps]int, words int) {
	for op, name := range opNames {
		m["ahe."+name+"_us_p50"] = us(all.durs[op].median())
		m["ahe.ops_per_word."+name] = float64(first[op]) / float64(words)
	}
}

// poolMissRatio is the share of randomizer draws the pool could not
// serve.
func poolMissRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}
