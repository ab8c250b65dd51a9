package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rainbar/internal/serve"
	"rainbar/internal/serve/journal"
	"rainbar/internal/transport"
	"rainbar/internal/workload"
)

// serveConfig sizes the serve_fleet workload: a fixed number of clients,
// each submitting one transfer session at a time to a single journaling
// serve daemon and waiting for it to finish before submitting the next.
// With twice as many clients as workers the pool never idles and every
// session queues behind about one other.
type serveConfig struct {
	W, H, Block int
	// Sizes and Faults rotate across sessions (session k gets
	// Sizes[k%len] bytes and Faults[k%len]); the fault mix makes a share
	// of sessions need a second round.
	Sizes  []int
	Faults []string
	// Workers is the daemon's pool size; 0 means one per CPU.
	Workers int
	// Clients is the number of concurrent clients; 0 means 2 × workers.
	Clients   int
	MaxRounds int
	// Set is how many sessions every run completes at least: the digest
	// and goodput cover sessions 0..Set-1, so they are exact for a seed.
	Set       int
	SetupReps int
	// Warmup sessions run to completion during set-up. They are drawn
	// from a fixed seed, so every seed's set-up does the same work.
	Warmup int
	// LatencyLimit is the per-session SLO.
	LatencyLimit time.Duration
	// Factory builds the daemon's drivers; nil means
	// serve.DefaultFactory(nil). The benchmark's wrapper sits on top.
	Factory serve.Factory
}

var serveDefault = serveConfig{
	W: 400, H: 192, Block: 8,
	Sizes:        []int{240, 420, 600},
	Faults:       []string{"", "drop=0.3", "burst=0.4,occlude=0.2", "splice=0.3"},
	MaxRounds:    8,
	Set:          120,
	SetupReps:    9,
	Warmup:       8,
	LatencyLimit: 1 * time.Second,
}

// warmupSeed seeds the warm-up sessions, whatever the run's seed.
const warmupSeed = 0x7761726d // "warm"

// workers is the daemon's pool size.
func (cfg serveConfig) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.NumCPU()
}

// clients is the number of concurrent clients.
func (cfg serveConfig) clients() int {
	if cfg.Clients > 0 {
		return cfg.Clients
	}
	return 2 * cfg.workers()
}

// spec builds session k's spec; every seed is mixed from (seed, k).
func (cfg serveConfig) spec(seed int64, k int) serve.SessionSpec {
	s := mix(seed, uint64(k), 20)
	sp := serve.SessionSpec{
		Payload:     workload.Text(cfg.Sizes[k%len(cfg.Sizes)], s),
		ScreenW:     cfg.W,
		ScreenH:     cfg.H,
		Block:       cfg.Block,
		DisplayRate: displayRate,
		CamSeed:     mix(s, 1, 0),
		Recovery:    "combine",
		MaxRounds:   cfg.MaxRounds,
	}
	sp.Channel.Seed = mix(s, 2, 0)
	if f := cfg.Faults[k%len(cfg.Faults)]; f != "" {
		sp.Faults = fmt.Sprintf("%s,seed=%d", f, mix(s, 3, 0)&0x7FFFFFFF)
	}
	return sp
}

// serveTimes collects per-layer timings inside the daemon: driver calls
// through a wrapping serve.Factory and journal file calls through a
// wrapping journal.Options.Open. Only the traced run fills it.
type serveTimes struct {
	mu                     sync.Mutex
	step, snapshot, result []time.Duration
	wait                   []time.Duration
	write, sync            []time.Duration
	bytes                  int
}

func (t *serveTimes) reset() {
	t.mu.Lock()
	t.step, t.snapshot, t.result, t.wait, t.write, t.sync, t.bytes = nil, nil, nil, nil, nil, nil, 0
	t.mu.Unlock()
}

func (t *serveTimes) add(dst *[]time.Duration, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, d)
	t.mu.Unlock()
}

// tracked is one session as its client and its driver see it. Times are
// nanoseconds since the run's start.
type tracked struct {
	submitted atomic.Int64 // when Submit returned
	done      atomic.Int64 // when the session finished (sealed or failed)
	finished  chan struct{}
	once      sync.Once
}

func (s *tracked) finish(at int64) {
	s.once.Do(func() {
		s.done.Store(at)
		close(s.finished)
	})
}

// fleet is the bookkeeping shared by the clients and the wrapping drivers.
type fleet struct {
	start time.Time
	times *serveTimes

	mu    sync.Mutex
	byCam map[int64]*tracked // CamSeed identifies a session's spec
}

func (f *fleet) now() int64 { return int64(time.Since(f.start)) }

// track registers a spec before it is submitted.
func (f *fleet) track(spec serve.SessionSpec) *tracked {
	s := &tracked{finished: make(chan struct{})}
	f.mu.Lock()
	f.byCam[spec.CamSeed] = s
	f.mu.Unlock()
	return s
}

// timedFactory wraps the daemon's own factory: it signals each session's
// completion to its client and, when tracing, times every driver call and
// the session's queue waits.
type timedFactory struct {
	inner serve.Factory
	fl    *fleet
}

func (f timedFactory) New(spec serve.SessionSpec) (serve.Driver, error) {
	d, err := f.inner.New(spec)
	if err != nil {
		return nil, err
	}
	f.fl.mu.Lock()
	s, ok := f.fl.byCam[spec.CamSeed]
	f.fl.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spec with unknown camera seed %d", spec.CamSeed)
	}
	return &timedDriver{inner: d, fl: f.fl, s: s}, nil
}

func (f timedFactory) Restore(spec serve.SessionSpec, state []byte) (serve.Driver, error) {
	return nil, fmt.Errorf("restore is not part of the benchmark")
}

type timedDriver struct {
	inner serve.Driver
	fl    *fleet
	s     *tracked
	ready int64 // when the session last became runnable (0: at submit)
}

func (d *timedDriver) Step() (serve.StepInfo, error) {
	// The server recovers a panicking step and fails the session without
	// calling Result: release the client first, then let the panic reach
	// the server's isolation.
	defer func() {
		if r := recover(); r != nil {
			d.s.finish(d.fl.now())
			panic(r)
		}
	}()
	t := d.fl.times
	t0 := d.fl.now()
	if t != nil {
		ready := d.ready
		if ready == 0 {
			ready = d.s.submitted.Load()
		}
		// A worker can pick a session up before its Submit returns; that
		// session did not wait.
		t.add(&t.wait, time.Duration(max(0, t0-ready)))
	}
	info, err := d.inner.Step()
	t1 := d.fl.now()
	if t != nil {
		t.add(&t.step, time.Duration(t1-t0))
	}
	d.ready = t1
	if err != nil {
		d.s.finish(t1) // the server fails the session without calling Result
	}
	return info, err
}

func (d *timedDriver) Snapshot() ([]byte, error) {
	t := d.fl.times
	if t == nil {
		return d.inner.Snapshot()
	}
	t0 := d.fl.now()
	b, err := d.inner.Snapshot()
	t1 := d.fl.now()
	t.add(&t.snapshot, time.Duration(t1-t0))
	d.ready = t1
	return b, err
}

func (d *timedDriver) Result() ([]byte, *transport.Stats, error) {
	t0 := d.fl.now()
	b, st, err := d.inner.Result()
	t1 := d.fl.now()
	d.s.finish(t1)
	if t := d.fl.times; t != nil {
		t.add(&t.result, time.Duration(t1-t0))
	}
	return b, st, err
}

// timedFile times journal writes and syncs.
type timedFile struct {
	f *os.File
	t *serveTimes
}

func (w timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.f.Write(p)
	d := time.Since(t0)
	w.t.mu.Lock()
	w.t.write = append(w.t.write, d)
	w.t.bytes += n
	w.t.mu.Unlock()
	return n, err
}

func (w timedFile) Sync() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.t.add(&w.t.sync, time.Since(t0))
	return err
}

func (w timedFile) Close() error { return w.f.Close() }

// rig is one set-up daemon: a journal in a fresh temp dir and a server
// whose warm-up sessions already ran.
type rig struct {
	dir string
	jnl *journal.Journal
	srv *serve.Server
	fl  *fleet
}

func (r *rig) close() {
	r.srv.Stop()
	r.jnl.Close()
	os.RemoveAll(r.dir)
}

// newRig starts a daemon that journals every record with a checkpoint
// every round, and runs cfg.Warmup sessions through it. The journal syncs
// every 16 records (fsync=interval), not every record: with fsync=always
// the run-to-run spread of every serve metric followed the shared disk's
// fsync latency (12-13% over five seeds, against 3% with syncing off).
func newRig(cfg serveConfig, opts runOpts, times *serveTimes) (*rig, error) {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.outDir, "serve-journal-")
	if err != nil {
		return nil, err
	}
	jopts := journal.Options{Fsync: journal.FsyncInterval}
	if times != nil {
		jopts.Open = func(path string) (journal.File, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			return timedFile{f: f, t: times}, nil
		}
	}
	jnl, err := journal.Open(dir, jopts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fl := &fleet{start: time.Now(), byCam: make(map[int64]*tracked)}
	inner := cfg.Factory
	if inner == nil {
		inner = serve.DefaultFactory(nil)
	}
	srv := serve.NewServer(serve.Config{
		MaxSessions:     cfg.clients() + cfg.Warmup,
		Workers:         cfg.workers(),
		Factory:         timedFactory{inner: inner, fl: fl},
		Journal:         jnl,
		CheckpointEvery: 1,
	})
	r := &rig{dir: dir, jnl: jnl, srv: srv, fl: fl}
	for i := 0; i < cfg.Warmup; i++ {
		spec := cfg.spec(warmupSeed, i)
		fl.track(spec)
		if _, err := srv.Submit(spec); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
	}
	srv.Quiesce()
	return r, nil
}

// sessionOutcome is the deterministic part of one session's result.
func sessionOutcome(info serve.SessionInfo, st *transport.Stats) string {
	s := fmt.Sprintf("state=%s rounds=%d air=%d bytes=%d", info.State, info.Rounds, info.Air, info.Bytes)
	if st != nil {
		s += fmt.Sprintf(" sent=%d needed=%d dropped=%d", st.FramesSent, st.FramesNeeded, st.FramesDropped)
	}
	return s
}

// served is one session a client submitted.
type served struct {
	k        int
	id       uint64
	refused  bool
	lat      time.Duration
	admit    time.Duration
	doneAtNS int64
}

// serveRun is what one closed-loop run measured.
type serveRun struct {
	attempted, failed, sloMet int
	lats, admit               []time.Duration
	elapsed                   time.Duration
	// Over the delivered sessions of the fixed set 0..Set-1 (exact for a
	// seed):
	setDone, bytes, rounds int
	sent, need             int
	multiRound, dropped    int
	air                    time.Duration
	dg                     digester
}

// closedRun runs the clients against one rig until seconds have passed
// and at least cfg.Set sessions were submitted, drains the daemon, and
// gates every delivered payload.
func closedRun(cfg serveConfig, r *rig, seed int64, seconds float64, times *serveTimes) (*serveRun, error) {
	fl := r.fl
	fl.times = times
	fl.start = time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	var next atomic.Int64
	perClient := make([][]served, cfg.clients())
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= cfg.Set && time.Since(fl.start) >= deadline {
					return
				}
				spec := cfg.spec(seed, k)
				s := fl.track(spec)
				t0 := fl.now()
				id, err := r.srv.Submit(spec)
				t1 := fl.now()
				s.submitted.Store(t1)
				rec := served{k: k, id: id, admit: time.Duration(t1 - t0)}
				if err != nil {
					rec.refused = true
					perClient[c] = append(perClient[c], rec)
					continue
				}
				<-s.finished
				rec.doneAtNS = s.done.Load()
				rec.lat = time.Duration(rec.doneAtNS - t0)
				perClient[c] = append(perClient[c], rec)
			}
		}(c)
	}
	wg.Wait()
	r.srv.Drain()

	var all []served
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].k < all[b].k })
	out := &serveRun{}
	var lastDone int64
	for _, rec := range all {
		out.attempted++
		out.admit = append(out.admit, rec.admit)
		inSet := rec.k < cfg.Set
		if rec.refused {
			out.failed++
			if inSet {
				out.dg.add("session %d refused", rec.k)
			}
			continue
		}
		info, err := r.srv.Info(rec.id)
		if err != nil {
			return nil, err
		}
		if info.State != serve.StateDone {
			out.failed++
			if inSet {
				out.dg.add("session %d %s", rec.k, sessionOutcome(info, nil))
			}
			continue
		}
		got, st, err := r.srv.Result(rec.id)
		if err != nil {
			return nil, err
		}
		if tamper != nil {
			tamper(got)
		}
		if err := gate(fmt.Sprintf("serve_fleet session %d", rec.k), cfg.spec(seed, rec.k).Payload, got); err != nil {
			return nil, err
		}
		lastDone = max(lastDone, rec.doneAtNS)
		out.lats = append(out.lats, rec.lat)
		if rec.lat <= cfg.LatencyLimit {
			out.sloMet++
		}
		if !inSet {
			continue
		}
		out.dg.add("session %d %s", rec.k, sessionOutcome(info, st))
		out.setDone++
		out.bytes += len(got)
		out.rounds += info.Rounds
		out.sent += st.FramesSent
		out.need += st.FramesNeeded
		out.air += info.Air
		out.dropped += st.FramesDropped
		if info.Rounds >= 2 {
			out.multiRound++
		}
	}
	out.elapsed = time.Duration(lastDone)
	return out, nil
}

// captureRate is the default camera's f_c; with f_d = displayRate it sets
// the capture slots per displayed frame.
const captureRate = 30

func runServe(cfg serveConfig, opts runOpts) (*outcome, error) {
	seconds := opts.seconds
	if opts.trace {
		seconds /= 2
	}
	r, setupS, err := medianSetup(cfg.SetupReps, func() (*rig, error) {
		return newRig(cfg, opts, nil)
	}, (*rig).close)
	if err != nil {
		return nil, err
	}
	opts.timedStart()
	alloc := startAlloc()
	run, err := closedRun(cfg, r, opts.seed, seconds, nil)
	r.close()
	if err != nil {
		return nil, err
	}
	allocPer := alloc.mbPer(run.attempted)

	out := &outcome{digest: run.dg.sum(), notes: map[string]any{
		"sessions": run.attempted, "clients": cfg.clients(), "workers": cfg.workers(),
		"multi_round_frac": ratio(float64(run.multiRound), float64(run.setDone)),
	}}
	sorted := sortedSeconds(run.lats)
	tailV, tailP := tail(sorted)
	out.notes["latency_tail_pct"] = tailP
	if !opts.trace {
		rss, err := opts.rssMB()
		if err != nil {
			return nil, err
		}
		vals := map[string]float64{
			"setup_s":          setupS,
			"latency_p50_s":    median(sorted),
			"latency_tail_s":   tailV,
			"throughput_per_s": ratio(float64(run.attempted-run.failed), run.elapsed.Seconds()),
			"delivered_frac":   ratio(float64(run.attempted-run.failed), float64(run.attempted)),
			"goodput_Bps":      ratio(float64(run.bytes), run.air.Seconds()),
			"slo_met_frac":     ratio(float64(run.sloMet), float64(run.attempted)),
			"rss_mb":           rss,
		}
		m, err := metricSet(false, vals)
		if err != nil {
			return nil, err
		}
		out.res = result{Correct: true, Attempted: run.attempted, Failed: run.failed, Metrics: m}
		return out, nil
	}

	// Traced half: a fresh daemon (not counted in setup_s) with timed
	// driver calls and journal file calls.
	times := &serveTimes{}
	tr, err := newRig(cfg, opts, times)
	if err != nil {
		return nil, err
	}
	times.reset() // drop the warm-up sessions' journal timings
	traced, err := closedRun(cfg, tr, opts.seed, seconds, times)
	tr.close()
	if err != nil {
		return nil, err
	}
	if err := sameOutcome("serve_fleet sessions (traced)", run.dg.sum(), traced.dg.sum()); err != nil {
		return nil, err
	}
	sessions := float64(traced.attempted)
	waits := sortedSeconds(times.wait)
	waitTail, _ := tail(waits)
	busy := sumDur(times.step) + sumDur(times.snapshot) + sumDur(times.result)
	covered := sumDur(traced.admit) + sumDur(times.wait) + busy
	set := float64(run.setDone)
	vals := map[string]float64{
		"serve.admit_s":                    meanSeconds(traced.admit),
		"serve.queue_wait_p50_s":           median(waits),
		"serve.queue_wait_tail_s":          waitTail,
		"serve.step_s":                     meanSeconds(times.step),
		"serve.snapshot_s":                 meanSeconds(times.snapshot),
		"serve.worker_busy_frac":           ratio(busy.Seconds(), float64(cfg.workers())*traced.elapsed.Seconds()),
		"serve.rounds_per_session":         ratio(float64(run.rounds), set),
		"transport.rounds_per_unit":        ratio(float64(run.rounds), set),
		"transport.frames_sent_per_needed": ratio(float64(run.sent), float64(run.need)),
		"faults.drop_frac":                 ratio(float64(run.dropped), float64(run.sent)*captureRate/displayRate),
		"journal.write_s":                  meanSeconds(times.write),
		"journal.sync_s":                   meanSeconds(times.sync),
		"journal.records_per_session":      ratio(float64(len(times.write)), sessions),
		"journal.bytes_per_session":        ratio(float64(times.bytes), sessions),
		"go.alloc_mb_per_unit":             allocPer,
		"trace.coverage_frac":              ratio(covered.Seconds(), sumDur(traced.lats).Seconds()),
		"trace.overhead_frac":              ratio(median(sortedSeconds(traced.lats)), median(sorted)) - 1,
	}
	m, err := metricSet(true, vals)
	if err != nil {
		return nil, err
	}
	out.res = result{Correct: true, Attempted: run.attempted, Failed: run.failed, Metrics: m}
	return out, nil
}
