package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/budget"
	"shuffledp/internal/cluster"
	"shuffledp/internal/composition"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ldp"
	"shuffledp/internal/rng"
	"shuffledp/internal/secretshare"
	"shuffledp/internal/store"
)

// peosParams are the fixed constants of the two PEOS workloads.
type peosParams struct {
	r, keyBits, d int
	epsL          float64
	nr, n         int
	// pool distinct collections (or Runs) of pre-randomized reports are
	// generated and sent in turn.
	pool int
	// warmup users make one collection during set-up, so the shufflers'
	// analyzer links, the fixed-base tables and one peer mesh exist
	// before the first timed collection.
	warmup int
	// setups is how many times setup is timed in an untraced run.
	setups int
}

var (
	clusterFull = peosParams{r: 2, keyBits: 1024, d: 16, epsL: 2, nr: 24, n: 10_000, pool: 4, warmup: 64, setups: 15}
	clusterToy  = peosParams{r: 2, keyBits: 512, d: 16, epsL: 2, nr: 8, n: 120, pool: 2, warmup: 16, setups: 2}
)

// The cluster ledger: one guarantee per collection, far more
// collections than any run makes.
var (
	collectionGuarantee = composition.Guarantee{Eps: 1, Delta: 1e-9}
	clusterTotal        = composition.Guarantee{Eps: 1 << 16, Delta: 1e-9 * (1 << 16)}
)

// cmd/shuffled's role defaults.
const (
	roleCollectTimeout = 5 * time.Minute
	roleIdleTimeout    = 2 * time.Minute
	roleSealTimeout    = 5 * time.Minute
)

// clusterTrace holds the traced run's hooks: one key wrapper per role,
// link meters per class, and the span contexts the driver sets.
type clusterTrace struct {
	tr                       *tracer
	clientCtx, nodeCtx       spanCtx
	clientOps, analyzerOps   aheOps
	shufflerOps              []*aheOps
	clientLink, meshLink     linkMeter
	analyzerLink, acceptLink linkMeter
	shufflerAddrs            map[string]bool
}

// dial is the traced DialFunc of a shuffler: mesh and analyzer links
// are told apart by address and counted on the dialing side, which
// sees both directions.
func (ct *clusterTrace) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	m := &ct.analyzerLink
	if ct.shufflerAddrs[addr] {
		m = &ct.meshLink
	}
	return &meteredConn{Conn: c, tr: ct.tr, m: m, ctx: &ct.nodeCtx}, nil
}

func (ct *clusterTrace) clientDial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, tr: ct.tr, m: &ct.clientLink, ctx: &ct.clientCtx}, nil
}

// clusterRig is one running cluster: analyzer, shufflers and the
// client, all in this process over loopback TCP.
type clusterRig struct {
	priv      *ahe.DGKPrivateKey
	analyzer  *cluster.Analyzer
	shufflers []*cluster.Shuffler
	runErrs   chan error
	client    *cluster.Client
	dir       string
	fo        ldp.FrequencyOracle
	nr        int
}

func newClusterRig(p peosParams, fo ldp.FrequencyOracle, dir string, ct *clusterTrace) (*clusterRig, error) {
	priv, err := ahe.GenerateDGK(p.keyBits, 64)
	if err != nil {
		return nil, err
	}
	rig := &clusterRig{priv: priv, dir: dir, runErrs: make(chan error, p.r), fo: fo, nr: p.nr}
	aLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	topo := cluster.Topology{Analyzers: []string{aLn.Addr().String()}}
	sLns := make([]net.Listener, p.r)
	for j := range sLns {
		if sLns[j], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			aLn.Close()
			for _, l := range sLns[:j] {
				l.Close()
			}
			return nil, err
		}
		topo.Shufflers = append(topo.Shufflers, sLns[j].Addr().String())
	}
	ledger, err := budget.NewLedger(clusterTotal, collectionGuarantee, budget.Naive{})
	if err != nil {
		return nil, err
	}

	var analyzerKey ahe.PrivateKey = priv
	var clientKey ahe.PublicKey = &priv.DGKPublicKey
	shufflerKey := func(int) ahe.PublicKey { return &priv.DGKPublicKey }
	var dial, clientDial cluster.DialFunc
	if ct != nil {
		analyzerKey = newTracedPriv(priv, &ct.analyzerOps)
		clientKey = &tracedPub{k: &priv.DGKPublicKey, ops: &ct.clientOps}
		shufflerKey = func(j int) ahe.PublicKey { return &tracedPub{k: &priv.DGKPublicKey, ops: ct.shufflerOps[j]} }
		dial, clientDial = ct.dial, ct.clientDial
		ct.shufflerAddrs = map[string]bool{}
		for j, l := range sLns {
			ct.shufflerAddrs[topo.Shufflers[j]] = true
			sLns[j] = &meteredListener{Listener: l, tr: ct.tr, m: &ct.acceptLink, ctx: &ct.nodeCtx}
		}
	}

	rig.analyzer, err = cluster.NewAnalyzer(cluster.AnalyzerConfig{
		Topology:       topo,
		Listener:       aLn,
		FO:             fo,
		NR:             p.nr,
		Priv:           analyzerKey,
		Ledger:         ledger,
		DataDir:        dir,
		Sync:           store.SyncBatch,
		CollectTimeout: roleCollectTimeout,
		HelloTimeout:   cluster.DefaultHelloTimeout,
		Retry:          cluster.RetryPolicy{Attempts: 1, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second},
	})
	if err != nil {
		aLn.Close()
		for _, l := range sLns {
			l.Close()
		}
		return nil, err
	}
	for j := 0; j < p.r; j++ {
		sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
			Index:        j,
			Topology:     topo,
			Listener:     sLns[j],
			NR:           p.nr,
			Pub:          shufflerKey(j),
			Source:       secretshare.Crypto,
			IdleTimeout:  roleIdleTimeout,
			SealTimeout:  roleSealTimeout,
			HelloTimeout: cluster.DefaultHelloTimeout,
			Dial:         dial,
		})
		if err != nil {
			for _, l := range sLns[j:] {
				l.Close()
			}
			rig.close()
			return nil, err
		}
		rig.shufflers = append(rig.shufflers, sh)
		go func() { rig.runErrs <- sh.Run() }()
	}
	rig.client, err = cluster.NewClient(cluster.ClientConfig{
		Topology: topo,
		FO:       fo,
		Pub:      clientKey,
		Source:   secretshare.Crypto,
		Retry:    cluster.RetryPolicy{Attempts: 1, BaseBackoff: 50 * time.Millisecond},
		Dial:     clientDial,
	})
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// close stops the client, then the analyzer (whose closed control link
// ends every shuffler's Run), and waits for the shufflers.
func (r *clusterRig) close() error {
	var first error
	if r.client != nil {
		first = r.client.Close()
	}
	r.analyzer.Close()
	timeout := time.After(30 * time.Second)
	for range r.shufflers {
		select {
		case err := <-r.runErrs:
			if err != nil && first == nil {
				first = err
			}
		case <-timeout:
			if first == nil {
				first = errors.New("shuffler did not stop after the analyzer closed")
			}
		}
	}
	for _, sh := range r.shufflers {
		sh.Close()
	}
	os.RemoveAll(r.dir)
	return first
}

// collect sends reps as users 0..n-1 of collection id through the one
// client, flushes, and has the analyzer collect them. It returns the
// client's send+flush time and the flush-to-result latency.
func (r *clusterRig) collect(id int, reps []ldp.Report, tr *tracer, ct *clusterTrace, out *outcome) (cluster.Collection, time.Duration, time.Duration, error) {
	group := uint64(id) + 1
	root := tr.open("driver.collection", 0, group)
	defer tr.close(root)
	before := r.analyzer.ShardCounts()
	r.client.SetCollection(id)
	start := time.Now()
	for lo := 0; lo < len(reps); lo += 256 {
		hi := min(lo+256, len(reps))
		sp := tr.open("cluster.send", root.id, group)
		if ct != nil {
			ct.clientCtx.set(sp.id, group)
		}
		for i := lo; i < hi; i++ {
			if err := r.client.SendReport(i, reps[i]); err != nil {
				return cluster.Collection{}, 0, 0, err
			}
		}
		var err error
		if hi == len(reps) {
			err = r.client.Flush()
		}
		tr.close(sp)
		if err != nil {
			return cluster.Collection{}, 0, 0, err
		}
	}
	flushed := time.Now()
	sp := tr.open("cluster.collect", root.id, group)
	if ct != nil {
		ct.nodeCtx.set(sp.id, group)
	}
	col, err := r.analyzer.Collect(len(reps))
	done := time.Now()
	tr.close(sp)
	if err != nil {
		return col, 0, 0, err
	}

	// Per-collection checks: the round carried exactly n reports and nr
	// fakes, and the analyzer's count delta minus this collection's own
	// report histogram leaves exactly the fakes' support.
	after := r.analyzer.ShardCounts()
	own := ldp.SupportCounts(r.fo, reps)
	out.check(col.Reports == len(reps), "collection %d: %d reports, sent %d", id, col.Reports, len(reps))
	out.check(col.Fakes == r.nr, "collection %d: %d fakes, want %d", id, col.Fakes, r.nr)
	fakes := 0
	for v := range after {
		rest := after[v] - before[v] - own[v]
		out.check(rest >= 0, "collection %d: value %d counts %d fewer than sent", id, v, -rest)
		fakes += rest
	}
	out.check(fakes == r.nr, "collection %d: fake support sums to %d, want %d", id, fakes, r.nr)
	return col, flushed.Sub(start), done.Sub(flushed), nil
}

// peosReports pre-randomizes pool collections of n users each from
// the seed: a Zipf population, one LDP stream per collection.
func peosReports(p peosParams, fo ldp.FrequencyOracle, seed uint64, n int) [][]ldp.Report {
	values := dataset.Synthetic("peos", n, p.d, 1.3, seed).Values
	out := make([][]ldp.Report, p.pool)
	for k := range out {
		r := rng.Substream(seed, uint64(k))
		out[k] = make([]ldp.Report, n)
		for i, v := range values {
			out[k][i] = fo.Randomize(v, r)
		}
	}
	return out
}

func runCluster(cfg runConfig) (*outcome, error) {
	p := clusterFull
	if cfg.toy {
		p = clusterToy
	}
	fo := ldp.NewGRR(p.d, p.epsL)
	out := &outcome{metrics: map[string]float64{}, constants: map[string]any{
		"oracle": "GRR", "d": p.d, "eps_l": p.epsL, "r": p.r, "nr": p.nr, "n": p.n,
		"ahe": fmt.Sprintf("DGK-%d", p.keyBits), "analyzers": 1, "shuffler_workers": 0,
		"chunk_words": 0, "transport": "loopback TCP, one process", "fsync": "batch",
		"warmup_users": p.warmup, "pool_collections": p.pool,
	}}
	inputs := peosReports(p, fo, cfg.seed, p.n)
	warm := peosReports(p, fo, cfg.seed^0x5eed, p.warmup)[0]

	var tr *tracer
	var ct *clusterTrace
	setups := p.setups
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
		ct = &clusterTrace{tr: tr}
		for j := 0; j < p.r; j++ {
			ct.shufflerOps = append(ct.shufflerOps, &aheOps{tr: tr, ctx: &ct.nodeCtx})
		}
		ct.clientOps = aheOps{tr: tr, ctx: &ct.clientCtx}
		ct.analyzerOps = aheOps{tr: tr, ctx: &ct.nodeCtx}
		setups = 1
	}

	var setupTimes durations
	var rig *clusterRig
	for i := 0; i < setups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, fmt.Errorf("closing a timed set-up: %w", err)
			}
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("cluster-%d-%d", os.Getpid(), i))
		start := time.Now()
		var err error
		if rig, err = newClusterRig(p, fo, dir, ct); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if _, _, _, err := rig.collect(0, warm, tr, ct, out); err != nil {
			rig.close()
			return nil, fmt.Errorf("setup warm-up collection: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
	}

	var roles []*aheOps
	if ct != nil {
		roles = append([]*aheOps{&ct.clientOps, &ct.analyzerOps}, ct.shufflerOps...)
	}
	var measured struct {
		reports, collections int64
		latency              durations
		attempts             int
		// Per collection: reports per second and client microseconds
		// per report, reported as medians. In a traced run they cover the
		// traced collections, and untracedRates the others.
		rates, userUs, untracedRates []float64
		// first holds the AHE calls of the first traced collection;
		// hits and misses the randomizer-pool draws of traced ones.
		first        [numOps]int
		hits, misses uint64
	}
	// Collection k sends pool input k mod pool. In a traced run,
	// collections alternate between untraced (even) and traced (odd),
	// so both kinds see the same warm-up and host drift.
	until := deadline(cfg.seconds)
	for k := 0; ; k++ {
		traced := cfg.trace && k%2 == 1
		h0, m0 := rig.priv.RandomizerPoolStats()
		tr.setOn(traced)
		reps := inputs[k%p.pool]
		col, user, lat, err := rig.collect(k+1, reps, tr, ct, out)
		tr.setOn(false)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("collection %d: %w", k+1, err)
		}
		out.attempted += int64(len(reps))
		out.failed += int64(col.Attempts-1) * int64(len(reps))
		colRate := rate(int64(len(reps)), user+lat)
		if cfg.trace && !traced {
			measured.untracedRates = append(measured.untracedRates, colRate)
		} else {
			if traced && measured.collections == 0 {
				measured.first = opCounts(roles...)
			}
			if traced {
				h1, m1 := rig.priv.RandomizerPoolStats()
				measured.hits += h1 - h0
				measured.misses += m1 - m0
			}
			measured.collections++
			measured.reports += int64(len(reps))
			measured.latency = append(measured.latency, lat)
			measured.attempts += col.Attempts
			measured.rates = append(measured.rates, colRate)
			measured.userUs = append(measured.userUs, perReport(us(user), int64(len(reps))))
		}
		if time.Now().After(until) && (!cfg.trace || traced) {
			break
		}
	}
	if cfg.trace {
		addOverhead(out.metrics, medianFloat(measured.untracedRates), medianFloat(measured.rates))
	}
	if err := rig.close(); err != nil {
		out.check(false, "stopping the cluster: %v", err)
	}

	m := out.metrics
	if !cfg.trace {
		m["setup_s"] = setupTimes.median().Seconds()
		m["reports_per_s"] = medianFloat(measured.rates)
		m["result_latency_ms_p50"] = ms(measured.latency.median())
		m["user_us_per_report"] = medianFloat(measured.userUs)
		m["delivered_ratio"] = 1 - float64(out.failed)/float64(max(1, out.attempted))
		m["max_rss_mb"] = maxRSSMiB()
		return out, nil
	}

	addAHEMetrics(m, summarize(roles...), measured.first, p.n+p.nr)
	shufflers := summarize(ct.shufflerOps...)
	if sum := measured.latency.sum(); sum > 0 {
		m["ahe.shuffler_busy_frac"] = float64(shufflers.busy) / float64(sum)
	}
	m["ahe.pool_miss_ratio"] = poolMissRatio(measured.hits, measured.misses)
	linkBytes := func(l *linkMeter) float64 {
		return perReport(float64(l.read.Load()+l.written.Load()), measured.reports)
	}
	m["cluster.client_bytes_per_report"] = linkBytes(&ct.clientLink)
	m["cluster.mesh_bytes_per_report"] = linkBytes(&ct.meshLink)
	m["cluster.analyzer_bytes_per_report"] = linkBytes(&ct.analyzerLink)
	blocked := time.Duration(ct.meshLink.writeNs.Load() + ct.analyzerLink.writeNs.Load() + ct.acceptLink.writeNs.Load())
	m["cluster.write_blocked_ms"] = ms(blocked) / float64(measured.collections)
	m["cluster.attempts_per_collection"] = float64(measured.attempts) / float64(measured.collections)
	addSelfTimes(m, tr, measured.reports)
	return out, nil
}
