package main

import (
	"fmt"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
)

var (
	inprocessFull = peosParams{r: 3, keyBits: 1024, d: 16, epsL: 2, nr: 24, n: 3000, setups: 15}
	inprocessToy  = peosParams{r: 3, keyBits: 512, d: 16, epsL: 2, nr: 8, n: 60, setups: 2}
)

// runInprocess drives Algorithm 1 through protocol.NewPEOS + Run, the
// engine behind shuffledp.RunPEOS, with a fresh LDP stream per Run.
func runInprocess(cfg runConfig) (*outcome, error) {
	p := inprocessFull
	if cfg.toy {
		p = inprocessToy
	}
	fo := ldp.NewGRR(p.d, p.epsL)
	out := &outcome{metrics: map[string]float64{}, constants: map[string]any{
		"oracle": "GRR", "d": p.d, "eps_l": p.epsL, "r": p.r, "nr": p.nr, "n": p.n,
		"ahe": fmt.Sprintf("DGK-%d", p.keyBits), "shuffle_workers": 0, "decrypt_workers": 0,
		"run_j_seeds": "source seed+2j, ldp seed+2j+1; j = k, or k/2 in a traced run",
	}}
	values := dataset.Synthetic("peos", p.n, p.d, 1.3, cfg.seed).Values

	var tr *tracer
	var ops *aheOps
	var runCtx spanCtx
	setups := p.setups
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
		ops = &aheOps{tr: tr, ctx: &runCtx}
		setups = 1
	}
	var setupTimes durations
	var peos *protocol.PEOS
	var priv *ahe.DGKPrivateKey
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if priv, err = ahe.GenerateDGK(p.keyBits, 64); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		var key ahe.PrivateKey = priv
		if ops != nil {
			key = newTracedPriv(priv, ops)
		}
		if peos, err = protocol.NewPEOS(fo, p.r, p.nr, key, rng.New(cfg.seed)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		// The key builds its fixed-base tables on first use; pay that
		// here, as a long-lived deployment would once.
		if _, err := priv.Encrypt(0); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
	}

	var measured struct {
		reports, runs   int64
		latency         durations
		users, shuffler time.Duration
		server          time.Duration
		shufflerBytes   int64
		serverBytes     int64
		// Per Run: reports per second and the users' microseconds per
		// report, reported as medians. In a traced run they cover the
		// traced Runs, and untracedRates the others.
		rates, userUs, untracedRates []float64
		// first holds the AHE calls of the first traced Run; hits and
		// misses the randomizer-pool draws of traced ones.
		first        [numOps]int
		hits, misses uint64
	}
	// Run j is the Run shuffledp.RunPEOS makes with Seed = seed+2j:
	// protocol Source rng.New(seed+2j), LDP stream rng.New(seed+2j+1),
	// so its AHE operation count depends on the seed and j alone. In a
	// traced run, Runs alternate between untraced (even k) and traced
	// (odd k), each pair repeating one Run j = k/2, so both kinds see the
	// same inputs, warm-up and host drift.
	until := deadline(cfg.seconds)
	for k := uint64(0); ; k++ {
		traced := cfg.trace && k%2 == 1
		j := k
		if cfg.trace {
			j = k / 2
		}
		h0, m0 := priv.RandomizerPoolStats()
		tr.setOn(traced)
		sp := tr.open("protocol.run", 0, k+1)
		runCtx.set(sp.id, k+1)
		peos.Source = rng.New(cfg.seed + 2*j)
		t0 := time.Now()
		res, err := peos.Run(values, rng.New(cfg.seed+2*j+1))
		d := time.Since(t0)
		tr.close(sp)
		tr.setOn(false)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", k, err)
		}
		checkInprocess(out, fo, values, res, rng.New(cfg.seed+2*j+1), p.nr, int(k))
		out.attempted += int64(len(values))
		users := res.Meter.Stats(protocol.PartyUsers).CPU
		runRate := rate(int64(len(values)), d)
		if cfg.trace && !traced {
			measured.untracedRates = append(measured.untracedRates, runRate)
		} else {
			if traced && measured.runs == 0 {
				measured.first = ops.counts()
			}
			if traced {
				h1, m1 := priv.RandomizerPoolStats()
				measured.hits += h1 - h0
				measured.misses += m1 - m0
			}
			measured.latency = append(measured.latency, d)
			measured.users += users
			measured.rates = append(measured.rates, runRate)
			measured.userUs = append(measured.userUs, perReport(us(users), int64(len(values))))
			measured.server += res.Meter.Stats(protocol.PartyServer).CPU
			for s := 0; s < p.r; s++ {
				st := res.Meter.Stats(protocol.ShufflerName(s))
				measured.shuffler += st.CPU
				measured.shufflerBytes += st.SentBytes
			}
			measured.serverBytes += res.Meter.Stats(protocol.PartyServer).RecvBytes
			measured.reports += int64(len(values))
			measured.runs++
		}
		if time.Now().After(until) && (!cfg.trace || traced) {
			break
		}
	}
	if cfg.trace {
		addOverhead(out.metrics, medianFloat(measured.untracedRates), medianFloat(measured.rates))
	}

	m := out.metrics
	if !cfg.trace {
		m["setup_s"] = setupTimes.median().Seconds()
		m["reports_per_s"] = medianFloat(measured.rates)
		m["result_latency_ms_p50"] = ms(measured.latency.median())
		m["user_us_per_report"] = medianFloat(measured.userUs)
		m["delivered_ratio"] = 1
		m["max_rss_mb"] = maxRSSMiB()
		return out, nil
	}
	nruns := float64(measured.runs)
	m["protocol.users_cpu_s"] = measured.users.Seconds() / nruns
	m["oblivious.shuffler_cpu_s"] = measured.shuffler.Seconds() / nruns
	m["protocol.server_cpu_s"] = measured.server.Seconds() / nruns
	m["protocol.shuffler_bytes_per_report"] = perReport(float64(measured.shufflerBytes), measured.reports)
	m["protocol.server_bytes_per_report"] = perReport(float64(measured.serverBytes), measured.reports)
	addAHEMetrics(m, summarize(ops), measured.first, p.n+p.nr)
	m["ahe.pool_miss_ratio"] = poolMissRatio(measured.hits, measured.misses)
	addSelfTimes(m, tr, measured.reports)
	return out, nil
}

// checkInprocess verifies one Run: n+nr reports whose multiset holds
// every user's report, replayed from the same LDP stream, plus nr
// fakes.
func checkInprocess(out *outcome, fo ldp.FrequencyOracle, values []int, res *protocol.Result, ldpRand *rng.Rand, nr, run int) {
	out.check(len(res.Reports) == len(values)+nr, "run %d: %d reports, want %d", run, len(res.Reports), len(values)+nr)
	replay := make([]ldp.Report, len(values))
	for i, v := range values {
		replay[i] = fo.Randomize(v, ldpRand)
	}
	got, want := ldp.SupportCounts(fo, res.Reports), ldp.SupportCounts(fo, replay)
	fakes := 0
	for v := range got {
		rest := got[v] - want[v]
		out.check(rest >= 0, "run %d: value %d has %d fewer reports than the users sent", run, v, -rest)
		fakes += rest
	}
	out.check(fakes == nr, "run %d: %d reports beyond the users', want %d fakes", run, fakes, nr)
}
