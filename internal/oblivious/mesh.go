package oblivious

// In-memory mesh: the Transport Run connects its in-process parties
// with. Every (sender, receiver) pair has its own unbounded FIFO
// queue, so Send never blocks; Recv blocks until the next message from
// that peer arrives. When a party fails, Run closes the mesh, which
// fails every pending and later Send and Recv — the peers blocked on
// the failed party return instead of waiting forever.

import (
	"errors"
	"sync"
	"time"

	"shuffledp/internal/transport"
)

// errMeshClosed is what Send and Recv return once a party has failed.
var errMeshClosed = errors.New("oblivious: mesh closed after a party failed")

// mesh is the shared state of one in-process shuffle's links.
type mesh struct {
	mu      sync.Mutex
	wake    sync.Cond
	queues  [][][]Msg // queues[from][to]
	err     error     // the first party failure; set once
	meter   *transport.Meter
	ctBytes int
}

func newMesh(r int, meter *transport.Meter, ctBytes int) *mesh {
	m := &mesh{queues: make([][][]Msg, r), meter: meter, ctBytes: ctBytes}
	m.wake.L = &m.mu
	for i := range m.queues {
		m.queues[i] = make([][]Msg, r)
	}
	return m
}

// fail closes the mesh with a party's error; the first failure wins.
func (m *mesh) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.wake.Broadcast()
}

// msgBytes is the payload size the meter charges for msg: 8 B per
// plaintext word, one serialized ciphertext per encrypted element, and
// 32 B for a permutation seed.
func (m *mesh) msgBytes(msg Msg) int {
	switch msg.Kind {
	case MsgPlain:
		return 8 * len(msg.Words)
	case MsgEnc:
		return m.ctBytes * len(msg.Enc)
	default:
		return 32
	}
}

// meshPort is one party's Transport endpoint on a mesh.
type meshPort struct {
	m  *mesh
	me int
	// blocked is the time the party spent waiting in Recv. Only the
	// party's engine goroutine receives, so it needs no lock.
	blocked time.Duration
}

// Send queues msg for party to and charges its bytes to the meter. It
// never blocks.
func (p *meshPort) Send(to int, msg Msg) error {
	m := p.m
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return errMeshClosed
	}
	m.queues[p.me][to] = append(m.queues[p.me][to], msg)
	m.mu.Unlock()
	m.wake.Broadcast()
	m.meter.Send(shufflerName(p.me), shufflerName(to), m.msgBytes(msg))
	return nil
}

// Recv returns the next message from party from, blocking until one
// arrives or the mesh closes.
func (p *meshPort) Recv(from int) (Msg, error) {
	m := p.m
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	q := &m.queues[from][p.me]
	for len(*q) == 0 && m.err == nil {
		m.wake.Wait()
	}
	p.blocked += time.Since(start)
	if m.err != nil {
		return Msg{}, errMeshClosed
	}
	msg := (*q)[0]
	// Drop the queue's reference so a consumed vector can be freed.
	(*q)[0] = Msg{}
	*q = (*q)[1:]
	return msg, nil
}
