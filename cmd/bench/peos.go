package main

// The peos suite times the cryptographic path — Algorithm 1 end to
// end — in both deployment shapes so the crypto cost enters the perf
// trajectory next to the aggregation and service suites:
//
//   - in-process: protocol.PEOS.Run (the shufflers as goroutines over
//     an in-memory mesh), with the paper's per-party cost accounting
//     (transport.Meter bytes).
//   - cluster: the role-separated tier of internal/cluster — R real
//     shuffler nodes + analyzer node over loopback TCP, real framing,
//     real DGK ciphertext (de)serialization on every hop.
//
// The delta between the two is the real price of the network layer;
// the absolute numbers trace the DGK/EOS cost model of Table III.

import (
	"fmt"
	"log"
	"net"
	"time"

	"shuffledp/internal/ahe"
	"shuffledp/internal/cluster"
	"shuffledp/internal/ldp"
	"shuffledp/internal/protocol"
	"shuffledp/internal/rng"
	"shuffledp/internal/transport"
)

type peosCase struct {
	R       int `json:"r"`
	N       int `json:"n"`
	NR      int `json:"nr"`
	D       int `json:"d"`
	KeyBits int `json:"key_bits"`
	// DecryptWorkers is the analyzer/server decryption fan-out for this
	// case (0 = GOMAXPROCS); FastPath records whether the DGK
	// fixed-base/windowed kernels were enabled (false = the naive
	// reference path, the ablation baseline).
	DecryptWorkers int  `json:"decrypt_workers"`
	FastPath       bool `json:"fast_path"`
	// In-process Algorithm 1 (protocol.PEOS.Run).
	InProcessSeconds     float64 `json:"in_process_seconds"`
	InProcessNsPerReport float64 `json:"in_process_ns_per_report"`
	// Role-separated cluster over loopback TCP (internal/cluster).
	ClusterSeconds     float64 `json:"cluster_seconds"`
	ClusterNsPerReport float64 `json:"cluster_ns_per_report"`
	// Per-party communication of the in-process run (Table III view).
	UserSentBytes     int64 `json:"user_sent_bytes"`
	ShufflerSentBytes int64 `json:"shuffler0_sent_bytes"`
	ServerRecvBytes   int64 `json:"server_recv_bytes"`
}

// peosScalingCase is one row of the analyzer scale-out sweep: the same
// collection round, analyzer tier sharded A ways by domain partition.
// CoordinatorWindowWords is the coordinator's share of the post-shuffle
// vector — the words IT must decrypt; the rest decrypt on the other
// shards. The scaling signal is CoordinatorDecryptNsPerReport (measured
// ns/word × window words / n): that is the per-report decrypt bill of
// the busiest node, and it drops as 1/A. ClusterSeconds is the measured
// wall clock of the whole round; on a host with at least A cores the
// wall clock follows the decrypt bill, on fewer cores (all nodes in one
// process sharing a core, as in CI) it stays flat — which is why the
// decrypt bill, not the wall clock, carries the speedup column.
type peosScalingCase struct {
	Analyzers                     int     `json:"analyzers"`
	R                             int     `json:"r"`
	N                             int     `json:"n"`
	NR                            int     `json:"nr"`
	KeyBits                       int     `json:"key_bits"`
	FastPath                      bool    `json:"fast_path"`
	CoordinatorWindowWords        int     `json:"coordinator_window_words"`
	CoordinatorDecryptNsPerReport float64 `json:"coordinator_decrypt_ns_per_report"`
	ClusterSeconds                float64 `json:"cluster_seconds"`
	ClusterNsPerReport            float64 `json:"cluster_ns_per_report"`
	DecryptSpeedupVsOneAnalyzer   float64 `json:"decrypt_speedup_vs_one_analyzer"`
}

// peosShufflerScalingCase is one row of the shuffler worker-pool sweep
// (DESIGN.md §14): the same collection round with the shufflers'
// ciphertext passes fanned out over Workers goroutines and the wire
// chunk-streamed. WorkerCryptoNsPerReport is the per-report crypto bill
// of one worker of the busiest (ciphertext-path) shuffler — measured
// per-op ns times that node's exact per-word op count, divided across
// the workers — and it drops as 1/Workers. ClusterSeconds is the
// measured wall clock of the whole round; on a host with at least
// Workers cores the wall clock follows the crypto bill, on fewer cores
// (every node sharing one core, as in CI) it stays flat — which is why
// the crypto bill, not the wall clock, carries the speedup column.
type peosShufflerScalingCase struct {
	Workers                  int     `json:"workers"`
	ChunkWords               int     `json:"chunk_words"`
	R                        int     `json:"r"`
	N                        int     `json:"n"`
	NR                       int     `json:"nr"`
	KeyBits                  int     `json:"key_bits"`
	FastPath                 bool    `json:"fast_path"`
	AddPlainNsPerOp          float64 `json:"add_plain_ns_per_op"`
	RerandomizeNsPerOp       float64 `json:"rerandomize_ns_per_op"`
	WorkerCryptoNsPerReport  float64 `json:"worker_crypto_ns_per_report"`
	CryptoSpeedupVsOneWorker float64 `json:"crypto_speedup_vs_one_worker"`
	ClusterSeconds           float64 `json:"cluster_seconds"`
	ClusterNsPerReport       float64 `json:"cluster_ns_per_report"`
	PoolHits                 uint64  `json:"pool_hits"`
	PoolMisses               uint64  `json:"pool_misses"`
}

type peosReport struct {
	Benchmark   string     `json:"benchmark"`
	GeneratedBy string     `json:"generated_by"`
	Note        string     `json:"note"`
	Cases       []peosCase `json:"cases"`
	// AnalyzerScaling sweeps the sharded analyzer tier at the first
	// (key_bits, r, workers) point of the grid.
	AnalyzerScaling []peosScalingCase `json:"analyzer_scaling,omitempty"`
	// ShufflerScaling sweeps the shufflers' worker pools over the
	// -peos-shuffler-workers counts with the chunk-streamed wire on.
	ShufflerScaling []peosShufflerScalingCase `json:"shuffler_scaling,omitempty"`
}

func runPEOSSuite(n, d, nr int, keyBitsList, rs, workersList, analyzerCounts, shufflerWorkers []int, chunkWords int, naive bool) (*peosReport, error) {
	fo := ldp.NewGRR(d, 2)
	src := rng.New(11)
	values := make([]int, n)
	for i := range values {
		values[i] = src.Intn(d)
	}
	rep := &peosReport{
		Benchmark:   "PEOS",
		GeneratedBy: "cmd/bench",
		Note: "in_process is protocol.PEOS.Run; cluster is internal/cluster " +
			"(R shuffler nodes + analyzer over loopback TCP); one warm key pair " +
			"per key size, estimates of the two paths are bit-identical by the " +
			"conformance tests; fast_path=false is the naive-AHE ablation",
	}
	for _, keyBits := range keyBitsList {
		priv, err := ahe.GenerateDGK(keyBits, 64)
		if err != nil {
			return nil, err
		}
		priv.SetFastPath(!naive)
		for _, r := range rs {
			for _, workers := range workersList {
				c := peosCase{R: r, N: n, NR: nr, D: d, KeyBits: keyBits,
					DecryptWorkers: workers, FastPath: !naive}

				var meter *transport.Meter
				inNs := timeIt(func() {
					p, err := protocol.NewPEOS(fo, r, nr, priv, rng.New(21))
					if err != nil {
						log.Fatal(err)
					}
					p.DecryptWorkers = workers
					res, err := p.Run(values, rng.New(22))
					if err != nil {
						log.Fatal(err)
					}
					meter = res.Meter
					sink(res.Estimates)
				})
				c.InProcessSeconds = inNs / 1e9
				c.InProcessNsPerReport = inNs / float64(n)
				c.UserSentBytes = meter.Stats(protocol.PartyUsers).SentBytes
				c.ShufflerSentBytes = meter.Stats(protocol.ShufflerName(0)).SentBytes
				c.ServerRecvBytes = meter.Stats(protocol.PartyServer).RecvBytes

				clNs, err := timePEOSCluster(fo, priv, values, r, nr, workers, 1, 0, 0)
				if err != nil {
					return nil, err
				}
				c.ClusterSeconds = clNs / 1e9
				c.ClusterNsPerReport = clNs / float64(n)

				fmt.Printf("peos r=%d n=%d nr=%d key=%d workers=%d fast=%v: in-process %.2fs (%.0f ns/report)  cluster %.2fs (%.0f ns/report)\n",
					r, n, nr, keyBits, workers, !naive,
					c.InProcessSeconds, c.InProcessNsPerReport, c.ClusterSeconds, c.ClusterNsPerReport)
				rep.Cases = append(rep.Cases, c)
			}
		}
	}

	// Analyzer scale-out sweep: the same synthetic round, sharded wider
	// and wider. The sweep runs on the naive-AHE path deliberately:
	// there the analyzer's decrypt work is the dominant term of the
	// round (~1.1ms/word vs ~0.2ms/word of shuffler re-randomization),
	// which is exactly the regime the sharded tier exists for — with
	// the fixed-base fast path a single analyzer decrypts faster than
	// the shuffle chain feeds it. Estimates stay bit-identical at every
	// width (the conformance suite proves it). The per-word decrypt
	// cost is measured on this key so the coordinator's decrypt bill
	// per row is a measurement, not a model.
	if len(analyzerCounts) > 0 {
		keyBits, r, workers := keyBitsList[len(keyBitsList)-1], rs[0], 1
		priv, err := ahe.GenerateDGK(keyBits, 64)
		if err != nil {
			return nil, err
		}
		priv.SetFastPath(false)
		ct, err := priv.Encrypt(3)
		if err != nil {
			return nil, err
		}
		const decSamples = 64
		decNsPerWord := timeIt(func() {
			for i := 0; i < decSamples; i++ {
				m, err := priv.Decrypt(ct)
				if err != nil {
					log.Fatal(err)
				}
				sink([]float64{float64(m)})
			}
		}) / decSamples
		var baseDecrypt float64
		for _, analyzers := range analyzerCounts {
			plan, err := cluster.EvenPlan(d, analyzers)
			if err != nil {
				return nil, err
			}
			clNs, err := timePEOSCluster(fo, priv, values, r, nr, workers, analyzers, 0, 0)
			if err != nil {
				return nil, err
			}
			window := plan.Cuts(n + nr)[1]
			sc := peosScalingCase{
				Analyzers:                     analyzers,
				R:                             r,
				N:                             n,
				NR:                            nr,
				KeyBits:                       keyBits,
				FastPath:                      false,
				CoordinatorWindowWords:        window,
				CoordinatorDecryptNsPerReport: float64(window) * decNsPerWord / float64(n),
				ClusterSeconds:                clNs / 1e9,
				ClusterNsPerReport:            clNs / float64(n),
			}
			if baseDecrypt == 0 {
				baseDecrypt = sc.CoordinatorDecryptNsPerReport
			}
			sc.DecryptSpeedupVsOneAnalyzer = baseDecrypt / sc.CoordinatorDecryptNsPerReport
			fmt.Printf("peos scaling analyzers=%d r=%d key=%d: coordinator window %d/%d words, decrypt %.0f ns/report (%.2fx), round %.2fs\n",
				analyzers, r, keyBits, sc.CoordinatorWindowWords, n+nr,
				sc.CoordinatorDecryptNsPerReport, sc.DecryptSpeedupVsOneAnalyzer, sc.ClusterSeconds)
			rep.AnalyzerScaling = append(rep.AnalyzerScaling, sc)
		}
	}

	// Shuffler worker-pool sweep (DESIGN.md §14): r = 2 on the fast
	// path, where one hide-and-seek round costs the ciphertext-path
	// shuffler exactly 2 AddPlain + 2 Rerandomize per word (the reshare
	// split, the shuffle rerandomize, and the final fold). Both per-op
	// costs are measured on this key with the scratch kernels — the
	// same code the workers run — so each row's per-worker crypto bill
	// is a measurement divided across the workers, not a model.
	// Estimates stay bit-identical at every worker count and chunk size
	// (TestParallelEOSConformance proves it under -race).
	if len(shufflerWorkers) > 0 {
		keyBits := keyBitsList[len(keyBitsList)-1]
		const r = 2
		priv, err := ahe.GenerateDGK(keyBits, 64)
		if err != nil {
			return nil, err
		}
		priv.SetFastPath(true)
		pub := ahe.PublicKey(priv).(ahe.ScratchOps)
		ct, err := priv.Encrypt(3)
		if err != nil {
			return nil, err
		}
		sc := pub.NewScratch()
		const opSamples = 256
		addNs := timeIt(func() {
			for i := 0; i < opSamples; i++ {
				if err := pub.AddPlainInto(ct, ct, uint64(i), sc); err != nil {
					log.Fatal(err)
				}
			}
		}) / opSamples
		rerNs := timeIt(func() {
			for i := 0; i < opSamples; i++ {
				if err := pub.RerandomizeInto(ct, ct, sc); err != nil {
					log.Fatal(err)
				}
			}
		}) / opSamples
		total := float64(n + nr)
		var base float64
		for _, w := range shufflerWorkers {
			if w < 1 {
				w = 1
			}
			hits0, misses0 := priv.RandomizerPoolStats()
			clNs, err := timePEOSCluster(fo, priv, values, r, nr, 0, 1, w, chunkWords)
			if err != nil {
				return nil, err
			}
			hits1, misses1 := priv.RandomizerPoolStats()
			row := peosShufflerScalingCase{
				Workers:                 w,
				ChunkWords:              chunkWords,
				R:                       r,
				N:                       n,
				NR:                      nr,
				KeyBits:                 keyBits,
				FastPath:                true,
				AddPlainNsPerOp:         addNs,
				RerandomizeNsPerOp:      rerNs,
				WorkerCryptoNsPerReport: (2*addNs + 2*rerNs) * total / float64(n) / float64(w),
				ClusterSeconds:          clNs / 1e9,
				ClusterNsPerReport:      clNs / float64(n),
				PoolHits:                hits1 - hits0,
				PoolMisses:              misses1 - misses0,
			}
			if base == 0 {
				base = row.WorkerCryptoNsPerReport
			}
			row.CryptoSpeedupVsOneWorker = base / row.WorkerCryptoNsPerReport
			fmt.Printf("peos shuffler scaling workers=%d chunk=%d key=%d: crypto %.0f ns/report/worker (%.2fx), pool %d hits / %d misses, round %.2fs\n",
				w, chunkWords, keyBits, row.WorkerCryptoNsPerReport, row.CryptoSpeedupVsOneWorker,
				row.PoolHits, row.PoolMisses, row.ClusterSeconds)
			rep.ShufflerScaling = append(rep.ShufflerScaling, row)
		}
	}
	return rep, nil
}

// timePEOSCluster stands up a fresh loopback cluster — the analyzer
// tier sharded `analyzers` ways, each shuffler running `shufWorkers`
// crypto goroutines with `chunkWords`-element wire windows — and times
// one full collection round (client submission through served
// estimate).
func timePEOSCluster(fo ldp.FrequencyOracle, priv *ahe.DGKPrivateKey, values []int, r, nr, workers, analyzers, shufWorkers, chunkWords int) (float64, error) {
	lns := make([]net.Listener, r)
	topo := cluster.Topology{Shufflers: make([]string, r), Analyzers: make([]string, analyzers)}
	for j := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lns[j] = ln
		topo.Shufflers[j] = ln.Addr().String()
	}
	alns := make([]net.Listener, analyzers)
	for s := range alns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		alns[s] = ln
		topo.Analyzers[s] = ln.Addr().String()
	}
	nodes := make([]*cluster.Analyzer, analyzers)
	for s := range nodes {
		node, err := cluster.NewAnalyzer(cluster.AnalyzerConfig{
			Topology:       topo,
			Listener:       alns[s],
			FO:             fo,
			NR:             nr,
			Priv:           priv,
			Shard:          s,
			Workers:        workers,
			CollectTimeout: 5 * time.Minute,
		})
		if err != nil {
			return 0, err
		}
		defer node.Close()
		nodes[s] = node
	}
	analyzer := nodes[0]
	shufflers := make([]*cluster.Shuffler, r)
	for j := 0; j < r; j++ {
		sh, err := cluster.NewShuffler(cluster.ShufflerConfig{
			Index:       j,
			Topology:    topo,
			Listener:    lns[j],
			NR:          nr,
			Pub:         ahe.PublicKey(priv),
			Source:      rng.New(100 + uint64(j)),
			SealTimeout: 5 * time.Minute,
			Workers:     shufWorkers,
			ChunkWords:  chunkWords,
		})
		if err != nil {
			return 0, err
		}
		shufflers[j] = sh
		go sh.Run()
	}
	defer func() {
		for _, sh := range shufflers {
			sh.Close()
		}
	}()

	start := time.Now()
	cl, err := cluster.DialClient(topo, fo, ahe.PublicKey(priv), rng.New(31), 0)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	if err := cl.SendValues(0, values, rng.New(22)); err != nil {
		return 0, err
	}
	if err := cl.Flush(); err != nil {
		return 0, err
	}
	col, err := analyzer.Collect(len(values))
	if err != nil {
		return 0, err
	}
	sink(col.Estimates)
	return float64(time.Since(start).Nanoseconds()), nil
}
