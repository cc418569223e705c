package protocol

// Reference tests for PEOS.Run's oblivious shuffle. The shuffle runs
// the per-party engine the cluster runs, so these pin it against a
// reference built without any shuffle code: the report multiset a
// correct shuffle must preserve, replayed from the run's own seeds.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
)

// reportKey is a word-encodable report (PEOS carries no Bits) as a
// map key.
type reportKey struct {
	seed  uint32
	value int
}

func reportCounts(reports []ldp.Report) map[reportKey]int {
	counts := make(map[reportKey]int, len(reports))
	for _, rep := range reports {
		counts[reportKey{rep.Seed, rep.Value}]++
	}
	return counts
}

// TestPEOSReportsMatchReplayedMultiset: the shuffled reports are
// exactly the users' LDP reports, replayed from the same ldpRand, plus
// the fakes decoded from the sum of every shuffler's FakeSource draws —
// and the estimates are Estimate over that multiset, bit for bit.
func TestPEOSReportsMatchReplayedMultiset(t *testing.T) {
	key := dgk64(t)
	const n, d, r, nr = 240, 16, 3, 40
	values, _ := skewedValues(n, d)
	for _, tc := range []struct {
		name string
		fo   ldp.FrequencyOracle
		seed uint64
	}{
		{"GRR", ldp.NewGRR(d, 4), 11},
		{"SOLH", ldp.NewSOLH(d, 5, 4), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPEOS(tc.fo, r, nr, key, rng.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			p.FakeSource = func(j int) secretshare.Source { return rng.Substream(tc.seed, uint64(j)) }
			res, err := p.Run(values, rng.New(tc.seed+100))
			if err != nil {
				t.Fatal(err)
			}

			want := make([]ldp.Report, 0, n+nr)
			ldpRand := rng.New(tc.seed + 100)
			for _, v := range values {
				want = append(want, tc.fo.Randomize(v, ldpRand))
			}
			mod := secretshare.NewModulus(64)
			fakeWords := make([]uint64, nr)
			for j := 0; j < r; j++ {
				src := rng.Substream(tc.seed, uint64(j))
				for k := range fakeWords {
					fakeWords[k] = mod.Add(fakeWords[k], mod.Random(src))
				}
			}
			enc, err := ldp.NewWordEncoder(tc.fo)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range fakeWords {
				want = append(want, enc.Decode(w))
			}

			if !maps.Equal(reportCounts(res.Reports), reportCounts(want)) {
				t.Fatalf("shuffled report multiset differs from the replayed users' reports plus fakes")
			}
			ref := Estimate(tc.fo, want, n, nr)
			for i := range ref {
				if math.Float64bits(res.Estimates[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("estimate[%d] = %v, want %v bit for bit", i, res.Estimates[i], ref[i])
				}
			}
		})
	}
}

// TestPEOSRunIsDeterministic: two Runs with one seed give the same
// report order — the composite permutation — and the same bytes sent
// by every shuffler, which pins the ciphertext holder's path.
func TestPEOSRunIsDeterministic(t *testing.T) {
	key := dgk64(t)
	const n, d, r, nr = 120, 8, 3, 20
	values, _ := skewedValues(n, d)
	run := func() *Result {
		p, err := NewPEOS(ldp.NewGRR(d, 4), r, nr, key, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		p.ShuffleWorkers = 2
		res, err := p.Run(values, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if fmt.Sprint(a.Reports) != fmt.Sprint(b.Reports) {
		t.Fatal("two runs with one seed produced different report orders")
	}
	for j := 0; j < r; j++ {
		sa, sb := a.Meter.Stats(ShufflerName(j)).SentBytes, b.Meter.Stats(ShufflerName(j)).SentBytes
		if sa != sb || sa == 0 {
			t.Fatalf("shuffler %d sent %d bytes, then %d", j, sa, sb)
		}
	}
}

var errInjectedRerandomize = errors.New("protocol test: injected rerandomize fault")

// midRoundFailingKey is a DGK key whose in-place rerandomization fails
// from call number failAt on — a shuffler-side crypto fault inside a
// round, after some parties already wait for the failing one.
type midRoundFailingKey struct {
	*ahe.DGKPrivateKey
	calls  atomic.Int64
	failAt int64
}

func (k *midRoundFailingKey) RerandomizeInto(dst, a *ahe.Ciphertext, sc *ahe.Scratch) error {
	if k.calls.Add(1) > k.failAt {
		return errInjectedRerandomize
	}
	return k.DGKPrivateKey.RerandomizeInto(dst, a, sc)
}

// TestPEOSKeyFailureFailsRun: a key failing mid-round makes Run return
// that error promptly, instead of leaving the peers blocked on the
// failed party forever.
func TestPEOSKeyFailureFailsRun(t *testing.T) {
	const n, d, r, nr = 60, 8, 3, 12
	const total = n + nr // one pass rerandomizes every element once
	values, _ := skewedValues(n, d)
	for _, failAt := range []int64{0, total / 2, 3 * total / 2, 5*total/2 + 1, 4 * total} {
		key := &midRoundFailingKey{DGKPrivateKey: dgk64(t), failAt: failAt}
		p, err := NewPEOS(ldp.NewGRR(d, 4), r, nr, key, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := p.Run(values, rng.New(32))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, errInjectedRerandomize) {
				t.Fatalf("failAt=%d: Run returned %v, want the injected fault", failAt, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("failAt=%d: Run hung after a party failed", failAt)
		}
	}
}
