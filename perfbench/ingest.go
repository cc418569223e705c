package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shuffledp/internal/budget"
	"shuffledp/internal/composition"
	"shuffledp/internal/dataset"
	"shuffledp/internal/ecies"
	"shuffledp/internal/ldp"
	"shuffledp/internal/service"
	"shuffledp/internal/store"
	"shuffledp/internal/transport"
)

// ingestParams are the ingest workload's fixed constants.
type ingestParams struct {
	// SOLH is fixed at (d, d', eps_L) rather than planned by amplify at
	// run time, so a change to the accountant cannot change the input.
	d, dPrime int
	epsL      float64
	// epochReports is one epoch's reports across all clients.
	epochReports int
	// poolEpochs distinct epochs of pre-randomized reports are
	// generated and sent in turn.
	poolEpochs int
	// batch is cmd/shuffled's shuffle-batch size.
	batch int
	// setups is how many times setup is timed in an untraced run.
	setups int
}

var (
	ingestFull = ingestParams{d: 64, dPrime: 16, epsL: 3, epochReports: 125_000, poolEpochs: 8, batch: 512, setups: 31}
	ingestToy  = ingestParams{d: 64, dPrime: 16, epsL: 3, epochReports: 3_000, poolEpochs: 2, batch: 512, setups: 2}
)

// ingestEpochEps is the central epsilon one epoch of 125k SOLH(d'=16,
// eps_L=3) reports gets from shuffling at delta 1e-9
// (amplify.CentralEpsilonSOLH gives 0.2901), fixed here so the ledger
// cannot change with the accountant code. The total admits far more
// epochs than any run seals.
var (
	ingestEpochGuarantee = composition.Guarantee{Eps: 0.2901, Delta: 1e-9}
	ingestTotalGuarantee = composition.Guarantee{Eps: 0.2901 * (1 << 16), Delta: 1e-9 * (1 << 16)}
)

// ingestClient is one session connection of the closed-loop generator.
type ingestClient struct {
	cl   *service.Client
	conn net.Conn
	ctx  spanCtx
	jobs chan ingestJob
}

type ingestJob struct {
	reports       []ldp.Report
	parent, group uint64
	done          chan<- ingestSent
}

type ingestSent struct {
	flushed time.Time
	busy    time.Duration
	err     error
}

// ingestRig is one set-up service with its connected clients.
type ingestRig struct {
	svc       *service.Service
	dir       string
	clients   []*ingestClient
	handshake durations
}

func newIngestRig(p ingestParams, fo ldp.FrequencyOracle, seed uint64, dir string, nclients int, tr *tracer, link *linkMeter) (*ingestRig, error) {
	key, err := ecies.GenerateKey()
	if err != nil {
		return nil, err
	}
	ledger, err := budget.NewLedger(ingestTotalGuarantee, ingestEpochGuarantee, budget.Naive{})
	if err != nil {
		return nil, err
	}
	var meter transport.Meter
	svc, err := service.New(service.Config{
		FO:          fo,
		Key:         key,
		BatchSize:   p.batch,
		ShuffleSeed: seed + 1,
		Meter:       &meter,
		Ledger:      ledger,
		DataDir:     dir,
		// fsync=none, not cmd/shuffled's batch: at batch every epoch
		// waits on ~245 fsyncs of a shared disk whose latency drifts,
		// which doubled the run-to-run spread of reports_per_s (0.18 to
		// 0.21 against 0.105 as IQR/median over ten seeds). The WAL
		// still seals, frames and writes every report, rotation markers
		// and checkpoints are still fsynced, and ingestLayers times the
		// per-batch commit at SyncBatch.
		Sync: store.SyncNone,
	})
	if err != nil {
		return nil, err
	}
	rig := &ingestRig{svc: svc, dir: dir}
	for c := 0; c < nclients; c++ {
		clientEnd, serverEnd := net.Pipe()
		if err := svc.Ingest(serverEnd); err != nil {
			rig.close()
			return nil, err
		}
		ic := &ingestClient{conn: clientEnd, jobs: make(chan ingestJob)}
		if tr != nil {
			ic.conn = &meteredConn{Conn: clientEnd, tr: tr, m: link, ctx: &ic.ctx}
		}
		start := time.Now()
		ic.cl, err = service.NewSessionClient(fo, key.Public(), nil, ic.conn, 0)
		rig.handshake = append(rig.handshake, time.Since(start))
		if err != nil {
			clientEnd.Close()
			rig.close()
			return nil, err
		}
		rig.clients = append(rig.clients, ic)
		go ic.serve(tr)
	}
	return rig, nil
}

// serve sends each job's reports as one closed-loop burst: every
// report, then Flush, then the next job only after the driver asks.
func (ic *ingestClient) serve(tr *tracer) {
	for job := range ic.jobs {
		start := time.Now()
		var err error
		for lo := 0; lo < len(job.reports) && err == nil; lo += service.DefaultClientBatch {
			hi := min(lo+service.DefaultClientBatch, len(job.reports))
			sp := tr.open("service.send", job.parent, job.group)
			ic.ctx.set(sp.id, job.group)
			for _, rep := range job.reports[lo:hi] {
				if err = ic.cl.SendReport(rep); err != nil {
					break
				}
			}
			if err == nil && hi == len(job.reports) {
				err = ic.cl.Flush()
			}
			tr.close(sp)
		}
		now := time.Now()
		job.done <- ingestSent{flushed: now, busy: now.Sub(start), err: err}
	}
}

// close aborts the rig (used for the discarded set-ups).
func (r *ingestRig) close() {
	for _, ic := range r.clients {
		close(ic.jobs)
		ic.conn.Close()
	}
	r.svc.Close()
	os.RemoveAll(r.dir)
}

// ingestPhase is what one measured phase carried.
type ingestPhase struct {
	reports  int64
	busy     time.Duration
	latency  durations
	walBytes int64
	// rates and userUs hold each epoch's reports per second and client
	// microseconds per report; their medians are the reported figures,
	// robust to a noisy neighbour stalling a few epochs. In a traced run
	// they cover the traced epochs, and untracedRates the others.
	rates, userUs, untracedRates []float64
}

func runIngest(cfg runConfig) (*outcome, error) {
	p := ingestFull
	if cfg.toy {
		p = ingestToy
	}
	fo := ldp.NewSOLH(p.d, p.dPrime, p.epsL)
	nclients := min(2, nprocs())
	out := &outcome{metrics: map[string]float64{}, constants: map[string]any{
		"oracle": "SOLH", "d": p.d, "d_prime": p.dPrime, "eps_l": p.epsL,
		"epoch_reports": p.epochReports, "pool_epochs": p.poolEpochs,
		"clients": nclients, "wire": "session over net.Pipe", "batch": p.batch,
		"client_batch": service.DefaultClientBatch, "fsync": "none", "ledger": "naive",
	}}

	// Inputs: a Zipf population randomized once; epoch e sends pool
	// epoch e mod poolEpochs.
	values := dataset.Synthetic("ingest", p.epochReports*p.poolEpochs, p.d, 1.3, cfg.seed).Values
	pool := ldp.RandomizeParallel(fo, values, cfg.seed, 0)
	epochInput := func(e int) []ldp.Report {
		k := e % p.poolEpochs
		return pool[k*p.epochReports : (k+1)*p.epochReports]
	}

	var tr *tracer
	var link linkMeter
	setups := p.setups
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
		setups = 1
	}
	var setupTimes, handshakes durations
	var rig *ingestRig
	for i := 0; i < setups; i++ {
		if rig != nil {
			rig.close()
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("ingest-%d-%d", os.Getpid(), i))
		start := time.Now()
		var err error
		rig, err = newIngestRig(p, fo, cfg.seed, dir, nclients, tr, &link)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
		handshakes = append(handshakes, rig.handshake...)
	}
	defer os.RemoveAll(rig.dir)
	svc := rig.svc

	epochs := 0
	var sent [][]ldp.Report
	var rotateErrs int64
	var snapshotT, windowT durations
	var ckptBytes []float64
	// In a traced run, epochs alternate between untraced (even) and
	// traced (odd), so both kinds see the same warm-up and host drift;
	// the layer figures come from the traced epochs alone.
	phase := func(seconds float64) ingestPhase {
		var ph ingestPhase
		until := deadline(seconds)
		for k := 0; ; k++ {
			traced := cfg.trace && k%2 == 1
			tr.setOn(traced)
			group := uint64(epochs) + 1
			epochStart := time.Now()
			var epochBusy time.Duration
			root := tr.open("driver.epoch", 0, group)
			input := epochInput(epochs)
			done := make(chan ingestSent, len(rig.clients))
			for c, ic := range rig.clients {
				lo, hi := c*len(input)/len(rig.clients), (c+1)*len(input)/len(rig.clients)
				ic.jobs <- ingestJob{reports: input[lo:hi], parent: root.id, group: group, done: done}
			}
			var last time.Time
			for range rig.clients {
				s := <-done
				if s.err != nil {
					out.check(false, "epoch %d: client send: %v", epochs, s.err)
				}
				if s.flushed.After(last) {
					last = s.flushed
				}
				epochBusy += s.busy
			}
			if traced {
				ph.walBytes += dirBytes(rig.dir, "wal-")
			}
			sp := tr.open("service.rotate", root.id, group)
			_, err := svc.Rotate()
			rotated := time.Now()
			tr.close(sp)
			if err != nil {
				rotateErrs++
				out.check(false, "epoch %d: Rotate: %v", epochs, err)
			}
			if traced {
				ckptBytes = append(ckptBytes, float64(dirBytes(rig.dir, "ckpt-")))
			}

			// The analyst's read after each seal.
			sp = tr.open("service.snapshot", root.id, group)
			t0 := time.Now()
			svc.Snapshot()
			snapshotT = append(snapshotT, time.Since(t0))
			tr.close(sp)
			sp = tr.open("service.window", root.id, group)
			t0 = time.Now()
			if _, err := svc.EstimateWindow(min(2, epochs+1)); err != nil {
				out.check(false, "epoch %d: EstimateWindow: %v", epochs, err)
			}
			windowT = append(windowT, time.Since(t0))
			tr.close(sp)
			tr.close(root)
			tr.setOn(false)

			sent = append(sent, input)
			epochs++
			epochRate := rate(int64(len(input)), time.Since(epochStart))
			if cfg.trace && !traced {
				ph.untracedRates = append(ph.untracedRates, epochRate)
			} else {
				ph.reports += int64(len(input))
				ph.busy += epochBusy
				ph.latency = append(ph.latency, rotated.Sub(last))
				ph.rates = append(ph.rates, epochRate)
				ph.userUs = append(ph.userUs, perReport(us(epochBusy), int64(len(input))))
			}
			if time.Now().After(until) && (!cfg.trace || k%2 == 1) {
				break
			}
		}
		return ph
	}

	measured := phase(cfg.seconds)
	if cfg.trace {
		addOverhead(out.metrics, medianFloat(measured.untracedRates), medianFloat(measured.rates))
	}

	// The driver's own clients finish before Drain, so every rotation,
	// seal and checkpoint above ran on the measured path, and Drain
	// only seals the empty final epoch.
	for _, ic := range rig.clients {
		close(ic.jobs)
		if err := ic.cl.Close(); err != nil {
			out.check(false, "client close: %v", err)
		}
	}
	drainStart := time.Now()
	final, drainErr := svc.Drain()
	drainTime := time.Since(drainStart)

	// Correctness, outside the measured phases.
	var total int64
	for _, in := range sent {
		total += int64(len(in))
	}
	out.check(drainErr == nil, "Drain: %v", drainErr)
	out.check(int64(final.Reports) == total, "Drain covers %d reports, %d sent", final.Reports, total)
	dropped := final.Late + final.Rejected + final.Kicked + final.IdleClosed
	out.check(dropped == 0, "%d reports or connections dropped", dropped)
	hist := svc.History()
	out.check(len(hist) == epochs+1, "%d sealed epochs, want %d rotations + 1 final seal", len(hist), epochs)
	var histReports int64
	for _, h := range hist {
		histReports += int64(h.Reports)
	}
	out.check(histReports == total, "History sums to %d reports, %d sent", histReports, total)
	aggStart := time.Now()
	ref := fo.NewAggregator()
	for _, in := range sent {
		for _, rep := range in {
			ref.Add(rep)
		}
	}
	refEst := ref.Estimates()
	aggTime := time.Since(aggStart)
	out.check(bitEqual(refEst, final.Estimates), "all-time estimate differs from a sequential aggregation of the sent reports")

	out.attempted = total
	out.failed = max(0, total-int64(final.Reports)) + final.Late + final.Rejected + rotateErrs*int64(p.epochReports)
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

	m["ldp.aggregate_ns_per_report"] = perReport(float64(aggTime.Nanoseconds()), total)
	m["ecies.handshake_us"] = us(handshakes.median())
	m["service.send_ns_per_report"] = perReport(float64(measured.busy.Nanoseconds()), measured.reports)
	if measured.busy > 0 {
		m["service.send_blocked_frac"] = float64(link.writeNs.Load()) / float64(measured.busy.Nanoseconds())
	}
	m["transport.wire_bytes_per_report"] = perReport(float64(link.written.Load()), measured.reports)
	m["service.snapshot_us_p50"] = us(snapshotT.median())
	m["service.window_us_p50"] = us(windowT.median())
	m["service.drain_ms"] = ms(drainTime)
	m["service.dropped_reports"] = float64(dropped)
	m["store.wal_bytes_per_report"] = perReport(float64(measured.walBytes), measured.reports)
	m["store.checkpoint_bytes"] = medianFloat(ckptBytes)
	addSelfTimes(m, tr, measured.reports)
	if err := ingestLayers(m, p, fo, pool[:p.epochReports], filepath.Join(cfg.work, fmt.Sprintf("store-%d", os.Getpid()))); err != nil {
		return nil, err
	}
	return out, nil
}

// ingestLayers times the layers the service calls internally, one call
// at a time over one epoch of the run's reports: the report codec, the
// session AEAD on DefaultClientBatch-report frames, and the WAL at
// fsync=batch with records the size the service logs.
func ingestLayers(m map[string]float64, p ingestParams, fo ldp.FrequencyOracle, reports []ldp.Report, dir string) error {
	codec, err := service.NewCodec(fo)
	if err != nil {
		return err
	}
	n := int64(len(reports))
	start := time.Now()
	for _, rep := range reports {
		b, err := codec.Marshal(rep)
		if err != nil {
			return err
		}
		if _, err := codec.Unmarshal(b); err != nil {
			return err
		}
	}
	m["service.codec_ns_per_report"] = perReport(float64(time.Since(start).Nanoseconds()), n)

	key, err := ecies.GenerateKey()
	if err != nil {
		return err
	}
	client, hello, err := ecies.NewClientSession(key.Public())
	if err != nil {
		return err
	}
	server, err := ecies.NewServerSession(key, hello)
	if err != nil {
		return err
	}
	var plain, frame, opened []byte
	var sealTime time.Duration
	for lo := 0; lo < len(reports); lo += service.DefaultClientBatch {
		plain = plain[:0]
		for _, rep := range reports[lo:min(lo+service.DefaultClientBatch, len(reports))] {
			if plain, err = codec.AppendMarshal(plain, rep); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if frame, err = client.Seal(frame[:0], plain); err != nil {
			return err
		}
		if opened, err = server.Open(opened[:0], frame); err != nil {
			return err
		}
		sealTime += time.Since(t0)
	}
	m["ecies.session_ns_per_report"] = perReport(float64(sealTime.Nanoseconds()), n)

	st, err := store.Create(dir, store.Meta{Oracle: fo.Name(), Domain: fo.Domain()}, store.SyncBatch)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	record := make([]byte, codec.Size()+ecies.StorageOverhead)
	var appendTime time.Duration
	var commits durations
	for lo := 0; lo < len(reports); lo += p.batch {
		hi := min(lo+p.batch, len(reports))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			record[0] = byte(i)
			if err := st.AppendSealedReport(0, record); err != nil {
				st.Close()
				return err
			}
		}
		t1 := time.Now()
		if err := st.Commit(); err != nil {
			st.Close()
			return err
		}
		appendTime += t1.Sub(t0)
		commits = append(commits, time.Since(t1))
	}
	if err := st.Close(); err != nil {
		return err
	}
	m["store.append_ns_per_report"] = perReport(float64(appendTime.Nanoseconds()), n)
	m["store.commit_us_p50"] = us(commits.median())
	return nil
}

// dirBytes sums the sizes of the files in dir whose names start with
// prefix.
func dirBytes(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func rate(reports int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(reports) / d.Seconds()
}
