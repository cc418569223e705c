package oblivious

import (
	"errors"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/transport"
)

// TestMeshChargesMessageBytes pins the mesh's per-message accounting,
// the Table III communication model: 8 B per plaintext word,
// CiphertextBytes per ciphertext, 32 B per permutation seed, and a
// chunk-streamed vector costs the sum of its fragments.
func TestMeshChargesMessageBytes(t *testing.T) {
	pub := dgk(t).DGKPublicKey
	ct := pub.CiphertextBytes()
	c, err := pub.Encrypt(7)
	if err != nil {
		t.Fatal(err)
	}
	var meter transport.Meter
	m := newMesh(3, &meter, ct)
	ports := []*meshPort{{m: m, me: 0}, {m: m, me: 1}, {m: m, me: 2}}
	sends := []struct {
		from, to int
		msg      Msg
	}{
		{0, 1, Msg{Kind: MsgPlain, Words: make([]uint64, 5)}},
		{0, 2, Msg{Kind: MsgEnc, Enc: []*ahe.Ciphertext{c, c, c}}},
		{1, 2, Msg{Kind: MsgSeed, Seed: 99}},
		{2, 0, Msg{Kind: MsgPlain, Words: make([]uint64, 2), More: true}},
		{2, 0, Msg{Kind: MsgPlain, Words: make([]uint64, 1)}},
	}
	for _, s := range sends {
		if err := ports[s.from].Send(s.to, s.msg); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]transport.Stats{
		"shuffler-0": {SentBytes: 8*5 + 3*int64(ct), RecvBytes: 8 * 3},
		"shuffler-1": {SentBytes: 32, RecvBytes: 8 * 5},
		"shuffler-2": {SentBytes: 8 * 3, RecvBytes: 3*int64(ct) + 32},
	}
	for party, w := range want {
		got := meter.Stats(party)
		if got.SentBytes != w.SentBytes || got.RecvBytes != w.RecvBytes {
			t.Errorf("%s: sent %d recv %d, want sent %d recv %d", party, got.SentBytes, got.RecvBytes, w.SentBytes, w.RecvBytes)
		}
	}

	// Delivery is FIFO per pair, and the queue lets go of each message
	// once it is received.
	slot := m.queues[0][1][:1]
	for _, s := range sends {
		got, err := ports[s.to].Recv(s.from)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != s.msg.Kind || got.More != s.msg.More || len(got.Words) != len(s.msg.Words) {
			t.Fatalf("%d->%d delivered %+v, want %+v", s.from, s.to, got, s.msg)
		}
	}
	if slot[0].Words != nil {
		t.Fatal("the queue still references a delivered vector")
	}
}

// TestMeshFailReleasesBlockedRecv: closing the mesh fails a Recv that
// is already waiting and every later Send and Recv.
func TestMeshFailReleasesBlockedRecv(t *testing.T) {
	m := newMesh(2, nil, 0)
	p0, p1 := &meshPort{m: m, me: 0}, &meshPort{m: m, me: 1}
	done := make(chan error, 1)
	go func() {
		_, err := p1.Recv(0)
		done <- err
	}()
	cause := errors.New("party 0 failed")
	m.fail(cause)
	m.fail(errors.New("a later failure"))
	select {
	case err := <-done:
		if !errors.Is(err, errMeshClosed) {
			t.Fatalf("blocked Recv returned %v, want errMeshClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv stayed blocked after the mesh closed")
	}
	if err := p0.Send(1, Msg{Kind: MsgSeed}); !errors.Is(err, errMeshClosed) {
		t.Fatalf("Send after close returned %v", err)
	}
	if m.err != cause {
		t.Fatalf("mesh recorded %v, want the first failure", m.err)
	}
}

// TestRunChargesShufflerTime: Run attributes each shuffler's engine
// time to it in the meter.
func TestRunChargesShufflerTime(t *testing.T) {
	pub := dgk(t).DGKPublicKey
	mod := secretshare.NewModulus(32)
	src := rng.New(8)
	var meter transport.Meter
	st := makeSharedState(make([]uint64, 50), 3, mod, src)
	if err := Run(st, Config{Mod: mod, Source: src, Pub: pub, Meter: &meter}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if s := meter.Stats(shufflerName(j)); s.CPU <= 0 || s.SentBytes == 0 {
			t.Fatalf("shuffler %d: %+v", j, s)
		}
	}
}

// scratchlessKey hides every optional capability of a key, leaving the
// bare PublicKey interface.
type scratchlessKey struct{ ahe.PublicKey }

func TestRunRejectsKeyWithoutScratchOps(t *testing.T) {
	mod := secretshare.NewModulus(32)
	src := rng.New(9)
	st := makeSharedState([]uint64{1, 2, 3}, 2, mod, src)
	if err := Run(st, Config{Mod: mod, Source: src, Pub: scratchlessKey{dgk(t).DGKPublicKey}}); err == nil {
		t.Fatal("Run accepted a key without ScratchOps")
	}
}
