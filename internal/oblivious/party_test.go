package oblivious

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"shuffledp/internal/ahe"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// chanTransport delivers messages between in-process parties over
// per-pair channels — the loopback harness the TCP layer in
// internal/cluster is conformance-tested against.
type chanTransport struct {
	me    int
	pipes [][]chan Msg // pipes[from][to]
	fail  *failSet
}

// failSet marks parties whose links are severed (the kill test).
type failSet struct {
	mu   sync.Mutex
	dead map[int]bool
}

func (f *failSet) isDead(p int) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead[p]
}

func (t *chanTransport) Send(to int, m Msg) error {
	if t.fail.isDead(to) || t.fail.isDead(t.me) {
		return errors.New("peer connection closed")
	}
	t.pipes[t.me][to] <- m
	return nil
}

func (t *chanTransport) Recv(from int) (Msg, error) {
	if t.fail.isDead(from) || t.fail.isDead(t.me) {
		return Msg{}, errors.New("peer connection closed")
	}
	m, ok := <-t.pipes[from][t.me]
	if !ok {
		return Msg{}, errors.New("peer connection closed")
	}
	return m, nil
}

func newPipes(r int) [][]chan Msg {
	pipes := make([][]chan Msg, r)
	for i := range pipes {
		pipes[i] = make([]chan Msg, r)
		for j := range pipes[i] {
			// Capacity 4 covers every per-round pair sequence; the
			// engine must not rely on it (sends run concurrently with
			// receives), but it keeps the harness snappy.
			pipes[i][j] = make(chan Msg, 4)
		}
	}
	return pipes
}

// runParties executes the distributed shuffle over the channel
// transport and returns each party's final vectors.
func runParties(t *testing.T, r int, vectors [][]uint64, enc []*ahe.Ciphertext, encHolder int, pub ahe.PublicKey, seed uint64) ([][]uint64, []([]*ahe.Ciphertext), []error) {
	t.Helper()
	pipes := newPipes(r)
	mod := secretshare.NewModulus(64)
	outPlain := make([][]uint64, r)
	outEnc := make([][]*ahe.Ciphertext, r)
	errs := make([]error, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			cfg := PartyConfig{
				Index:   j,
				Parties: r,
				Mod:     mod,
				Source:  rng.Substream(seed, uint64(j)),
				Pub:     pub,
			}
			var plain []uint64
			var e []*ahe.Ciphertext
			if j == encHolder {
				e = enc
			} else {
				plain = vectors[j]
			}
			outPlain[j], outEnc[j], errs[j] = RunParty(cfg, &chanTransport{me: j, pipes: pipes}, plain, e)
		}(j)
	}
	wg.Wait()
	return outPlain, outEnc, errs
}

func sortedWords(words []uint64) []uint64 {
	out := append([]uint64(nil), words...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRunPartyPlainPreservesMultiset(t *testing.T) {
	mod := secretshare.NewModulus(64)
	// Pub is required even for plain runs (any party could in
	// principle receive a ciphertext); use a tiny test key.
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{2, 3, 4, 5} {
		r := r
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			const n = 23
			values := make([]uint64, n)
			src := rng.New(77)
			for i := range values {
				values[i] = src.Uint64()
			}
			vectors := secretshare.SplitVector(values, r, mod, src)
			outPlain, outEnc, errs := runParties(t, r, vectors, nil, -1, ahe.PublicKey(priv), 5)
			for j, err := range errs {
				if err != nil {
					t.Fatalf("party %d: %v", j, err)
				}
				if outEnc[j] != nil {
					t.Fatalf("party %d ended with a ciphertext vector in a plain run", j)
				}
			}
			got := secretshare.CombineVectors(outPlain, mod)
			want := sortedWords(values)
			if gotS := sortedWords(got); fmt.Sprint(gotS) != fmt.Sprint(want) {
				t.Fatalf("multiset changed:\n got %v\nwant %v", gotS, want)
			}
			// The order must actually have changed (n=23 elements; the
			// odds of the identity permutation surviving every round are
			// negligible — a fixed seed keeps this deterministic).
			if fmt.Sprint(got) == fmt.Sprint(values) {
				t.Fatal("shuffle left the vector order unchanged")
			}
		})
	}
}

func TestRunPartyEncryptedPreservesMultisetAndSingleHolder(t *testing.T) {
	mod := secretshare.NewModulus(64)
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	pub := ahe.PublicKey(priv)
	for _, r := range []int{2, 3} {
		r := r
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			const n = 11
			values := make([]uint64, n)
			src := rng.New(99)
			for i := range values {
				values[i] = src.Uint64()
			}
			vectors := secretshare.SplitVector(values, r, mod, src)
			// The last party holds its share vector encrypted, as in PEOS.
			encHolder := r - 1
			enc := make([]*ahe.Ciphertext, n)
			for i, w := range vectors[encHolder] {
				c, err := pub.Encrypt(w)
				if err != nil {
					t.Fatal(err)
				}
				enc[i] = c
			}
			outPlain, outEnc, errs := runParties(t, r, vectors, enc, encHolder, pub, 9)
			holders := 0
			st := &State{Plain: make([][]uint64, r), EncHolder: -1}
			for j, err := range errs {
				if err != nil {
					t.Fatalf("party %d: %v", j, err)
				}
				if outEnc[j] != nil {
					holders++
					st.Enc = outEnc[j]
					st.EncHolder = j
				} else {
					st.Plain[j] = outPlain[j]
				}
			}
			if holders != 1 {
				t.Fatalf("want exactly 1 ciphertext holder, got %d", holders)
			}
			got, err := Reveal(st, mod, priv)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedWords(values)
			if gotS := sortedWords(got); fmt.Sprint(gotS) != fmt.Sprint(want) {
				t.Fatalf("multiset changed:\n got %v\nwant %v", gotS, want)
			}
		})
	}
}

// A dead peer must surface as an error from every surviving party, not
// as a hang or a silently wrong shuffle.
func TestRunPartyDeadPeerFailsCleanly(t *testing.T) {
	const r = 3
	mod := secretshare.NewModulus(64)
	priv, err := ahe.GenerateDGK(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	values := make([]uint64, n)
	src := rng.New(3)
	for i := range values {
		values[i] = src.Uint64()
	}
	vectors := secretshare.SplitVector(values, r, mod, src)

	pipes := newPipes(r)
	fail := &failSet{dead: map[int]bool{2: true}}
	var wg sync.WaitGroup
	errs := make([]error, r)
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			cfg := PartyConfig{
				Index: j, Parties: r, Mod: mod,
				Source: rng.Substream(4, uint64(j)),
				Pub:    ahe.PublicKey(priv),
			}
			_, _, errs[j] = RunParty(cfg, &chanTransport{me: j, pipes: pipes, fail: fail}, vectors[j], nil)
		}(j)
	}
	wg.Wait()
	for j := 0; j < 2; j++ {
		if errs[j] == nil {
			t.Fatalf("party %d did not observe the dead peer", j)
		}
	}
}

func TestRunPartyConfigValidation(t *testing.T) {
	mod := secretshare.NewModulus(64)
	priv, _ := ahe.GenerateDGK(512, 64)
	base := PartyConfig{Index: 0, Parties: 2, Mod: mod, Source: rng.New(1), Pub: ahe.PublicKey(priv)}
	tr := &chanTransport{me: 0, pipes: newPipes(2)}
	if _, _, err := RunParty(base, tr, nil, nil); err == nil {
		t.Fatal("accepted a party with no vector")
	}
	cfg := base
	cfg.Source = nil
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted a party without randomness")
	}
	cfg = base
	cfg.Pub = nil
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted a party without the AHE key")
	}
	cfg = base
	cfg.Parties = 1
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted a single-party shuffle")
	}
	cfg = base
	cfg.Index = 5
	if _, _, err := RunParty(cfg, tr, []uint64{1}, nil); err == nil {
		t.Fatal("accepted an out-of-range index")
	}
}

// phaseCall records one Phaser announcement.
type phaseCall struct {
	round int
	phase Phase
}

// phaserTransport wraps chanTransport and records the phase boundaries
// RunParty announces — the hook internal/cluster uses to re-arm its
// per-phase network deadlines.
type phaserTransport struct {
	chanTransport
	mu    sync.Mutex
	calls []phaseCall
}

func (t *phaserTransport) Phase(round int, phase Phase) {
	t.mu.Lock()
	t.calls = append(t.calls, phaseCall{round, phase})
	t.mu.Unlock()
}

func TestRunPartyAnnouncesPhases(t *testing.T) {
	const (
		r    = 3
		seed = 31
	)
	rounds := len(Combinations(r, Hiders(r)))
	pub := ahe.PublicKey(dgk(t))
	pipes := newPipes(r)
	mod := secretshare.NewModulus(64)
	trs := make([]*phaserTransport, r)
	errs := make([]error, r)
	var wg sync.WaitGroup
	for j := 0; j < r; j++ {
		trs[j] = &phaserTransport{chanTransport: chanTransport{me: j, pipes: pipes}}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			cfg := PartyConfig{
				Index:   j,
				Parties: r,
				Mod:     mod,
				Source:  rng.Substream(seed, uint64(j)),
				Pub:     pub,
			}
			_, _, errs[j] = RunParty(cfg, trs[j], []uint64{1, 2, 3}, nil)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", j, err)
		}
	}
	var want []phaseCall
	for round := 0; round < rounds; round++ {
		want = append(want,
			phaseCall{round, PhaseHide},
			phaseCall{round, PhaseShuffle},
			phaseCall{round, PhaseReshare},
		)
	}
	want = append(want, phaseCall{rounds, PhaseDone})
	for j, tr := range trs {
		if len(tr.calls) != len(want) {
			t.Fatalf("party %d announced %v, want %v", j, tr.calls, want)
		}
		for i := range want {
			if tr.calls[i] != want[i] {
				t.Fatalf("party %d call %d = %v, want %v", j, i, tr.calls[i], want[i])
			}
		}
	}
}
