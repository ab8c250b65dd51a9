package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
	"rainbar/internal/transport"
	"rainbar/internal/workload"
)

// xferConfig sizes the xfer_text workload: the paper's §V text transfer,
// one client running back-to-back transport.Session transfers over a
// mildly adverse link with full decode recovery (like examples/texttransfer).
type xferConfig struct {
	W, H, Block int
	// Set is the number of distinct seeded transfers the closed loop
	// cycles through.
	Set int
	// MinFrames, MaxFrames bound each payload's size in frame capacities.
	MinFrames, MaxFrames float64
	DistanceCM           float64
	ViewAngleDeg         float64
	MaxRounds            int
	// SetupReps is how many times set-up runs (setup_s is the median).
	SetupReps int
	// LatencyLimit is the per-transfer SLO.
	LatencyLimit time.Duration
}

var xferDefault = xferConfig{
	W: 640, H: 360, Block: 12,
	Set:       24,
	MinFrames: 5.0, MaxFrames: 5.6, // 6 chunks once the manifest and prefixes are added
	DistanceCM: 14, ViewAngleDeg: 10,
	MaxRounds:    10,
	SetupReps:    5,
	LatencyLimit: 2 * time.Second,
}

const displayRate = 10

// xferUnit is one member of the seeded transfer set.
type xferUnit struct {
	data []byte
	sess *transport.Session
}

// xferSet is the workload's set-up product: a codec, the transfer set, and
// a warm-up transfer drawn from a fixed seed, so every seed's set-up does
// the same work.
type xferSet struct {
	codec *core.Codec
	units []xferUnit
	warm  xferUnit
}

// newXferSet builds the transfer set for a seed. rec, when non-nil, is
// attached to the codec (the traced run's stage spans).
func newXferSet(cfg xferConfig, seed int64, rec obs.Recorder) (*xferSet, error) {
	geo, err := layout.NewGeometry(cfg.W, cfg.H, cfg.Block)
	if err != nil {
		return nil, err
	}
	ccfg := core.Config{Geometry: geo, DisplayRate: displayRate, AppType: uint8(transport.AppText), Recorder: rec}
	combine := transport.RecoveryCombine.Configure(&ccfg)
	codec, err := core.NewCodec(ccfg)
	if err != nil {
		return nil, err
	}
	// unit builds transfer i of the set drawn from seed s.
	capacity := float64(codec.FrameCapacity())
	unit := func(s int64, i int, rng *rand.Rand) (xferUnit, error) {
		frames := cfg.MinFrames + rng.Float64()*(cfg.MaxFrames-cfg.MinFrames)
		data := workload.Text(int(frames*capacity), mix(s, uint64(i), 1))
		chCfg := channel.DefaultConfig()
		chCfg.DistanceCM = cfg.DistanceCM
		chCfg.ViewAngleDeg = cfg.ViewAngleDeg
		chCfg.Seed = mix(s, uint64(i), 2)
		ch, err := channel.New(chCfg)
		if err != nil {
			return xferUnit{}, err
		}
		cam := camera.Default()
		cam.Seed = mix(s, uint64(i), 3)
		sess := &transport.Session{
			Codec:     codec,
			Link:      transport.Link{Channel: ch, Camera: cam, DisplayRate: displayRate},
			MaxRounds: cfg.MaxRounds,
			Combine:   combine,
		}
		return xferUnit{data: data, sess: sess}, nil
	}
	set := &xferSet{codec: codec}
	rng := rand.New(rand.NewSource(mix(seed, 0, 0)))
	for i := 0; i < cfg.Set; i++ {
		u, err := unit(seed, i, rng)
		if err != nil {
			return nil, err
		}
		set.units = append(set.units, u)
	}
	if set.warm, err = unit(warmupSeed, 0, rand.New(rand.NewSource(warmupSeed))); err != nil {
		return nil, err
	}
	return set, nil
}

// xferOutcome is the deterministic part of one transfer's result.
type xferOutcome struct {
	ok                               bool
	rounds, sent, needed, bytes, lad int
	air                              time.Duration
}

func (o xferOutcome) String() string {
	return fmt.Sprintf("ok=%v rounds=%d sent=%d needed=%d bytes=%d ladder=%d air=%d", o.ok, o.rounds, o.sent, o.needed, o.bytes, o.lad, o.air)
}

// tamper, when set, corrupts delivered payloads before the gate sees
// them; the correctness tests use it to prove the gate trips.
var tamper func(got []byte)

// finishXfer gates one transfer's delivered bytes and folds its
// statistics into an outcome. A transport error is a failed unit, not a
// gate failure: the transfer reported it never delivered.
func finishXfer(i int, u xferUnit, got []byte, st *transport.Stats, err error) (xferOutcome, error) {
	if err != nil {
		o := xferOutcome{}
		if st != nil {
			o = xferOutcome{rounds: st.Rounds, sent: st.FramesSent, needed: st.FramesNeeded, lad: st.LadderAttempts, air: st.AirTime}
		}
		return o, nil
	}
	if tamper != nil {
		tamper(got)
	}
	if err := gate(fmt.Sprintf("xfer_text transfer %d", i), u.data, got); err != nil {
		return xferOutcome{}, err
	}
	return xferOutcome{ok: true, rounds: st.Rounds, sent: st.FramesSent, needed: st.FramesNeeded,
		bytes: len(got), lad: st.LadderAttempts, air: st.AirTime}, nil
}

func runXfer(cfg xferConfig, opts runOpts) (*outcome, error) {
	set, setupS, err := medianSetup(cfg.SetupReps, func() (*xferSet, error) {
		s, err := newXferSet(cfg, opts.seed, nil)
		if err != nil {
			return nil, err
		}
		// Warm-up: one transfer fills the raster pools and decode scratch
		// before anything is timed, as a long-lived client would have.
		u := s.warm
		if _, _, err := u.sess.Transfer(u.data); err != nil {
			return nil, fmt.Errorf("warm-up transfer: %w", err)
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	seconds := opts.seconds
	if opts.trace {
		seconds /= 2
	}
	first := make([]*xferOutcome, len(set.units))
	var lats []time.Duration
	attempted, failed, sloMet := 0, 0, 0
	opts.timedStart()
	alloc := startAlloc()
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	for k := 0; k < len(set.units) || time.Since(start) < deadline; k++ {
		i := k % len(set.units)
		u := set.units[i]
		u.sess.Reset()
		t0 := time.Now()
		got, st, terr := u.sess.Transfer(u.data)
		lat := time.Since(t0)
		o, err := finishXfer(i, u, got, st, terr)
		if err != nil {
			return nil, err
		}
		attempted++
		if !o.ok {
			failed++
		} else if lat <= cfg.LatencyLimit {
			sloMet++
		}
		lats = append(lats, lat)
		if first[i] == nil {
			first[i] = &o
		} else if err := sameOutcome(fmt.Sprintf("xfer_text transfer %d", i), first[i].String(), o.String()); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	allocPer := alloc.mbPer(attempted)

	var dg digester
	var bytes, sent, needed, rounds int
	var air time.Duration
	for i, o := range first {
		dg.add("transfer %d %s", i, o)
		bytes += o.bytes
		sent += o.sent
		needed += o.needed
		rounds += o.rounds
		air += o.air
	}
	out := &outcome{digest: dg.sum(), notes: map[string]any{"transfers_timed": attempted}}
	sorted := sortedSeconds(lats)
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
			"throughput_per_s": float64(attempted-failed) / elapsed.Seconds(),
			"delivered_frac":   ratio(float64(attempted-failed), float64(attempted)),
			"goodput_Bps":      ratio(float64(bytes), air.Seconds()),
			"slo_met_frac":     ratio(float64(sloMet), float64(attempted)),
			"rss_mb":           rss,
		}
		m, err := metricSet(false, vals)
		if err != nil {
			return nil, err
		}
		out.res = result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}
		return out, nil
	}

	vals, err := traceXfer(cfg, opts, first, median(sorted), seconds)
	if err != nil {
		return nil, err
	}
	vals["go.alloc_mb_per_unit"] = allocPer
	vals["transport.rounds_per_unit"] = ratio(float64(rounds), float64(len(first)))
	vals["transport.frames_sent_per_needed"] = ratio(float64(sent), float64(needed))
	m, err := metricSet(true, vals)
	if err != nil {
		return nil, err
	}
	out.res = result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}
	return out, nil
}

// traceXfer is the traced half of an xfer_text run. Each transfer runs
// through Begin/Step/Seal with every Step timed, on a codec carrying an
// obs.Memory recorder (the core stage spans). Its first round is then
// replayed through the same public calls Session makes, each wrapped in a
// span, over an identically seeded link; the replay must leave the same
// chunks missing as the real round did.
func traceXfer(cfg xferConfig, opts runOpts, first []*xferOutcome, untracedP50, seconds float64) (map[string]float64, error) {
	mem := obs.NewMemory()
	set, err := newXferSet(cfg, opts.seed, mem)
	if err != nil {
		return nil, err
	}
	steps, replay := newTracer(), newTracer()
	var lats []time.Duration
	var roundWall time.Duration
	var captures, frames, capFails, ladder, wins int
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	for k := 0; k == 0 || time.Since(start) < deadline; k++ {
		i := k % len(set.units)
		u := set.units[i]
		u.sess.Reset()
		var lat time.Duration
		t0 := time.Now()
		x, err := u.sess.Begin(u.data)
		if err != nil {
			return nil, err
		}
		var missing1 []int
		for round := 1; ; round++ {
			end := steps.start(k, 0, "transport", "Xfer.Step")
			done, err := x.Step()
			end()
			if err != nil {
				return nil, err
			}
			if round == 1 {
				lat += time.Since(t0)
				missing1 = x.State().Missing
				t0 = time.Now()
			}
			if done {
				break
			}
		}
		got, st, terr := x.Seal()
		lat += time.Since(t0)
		o, err := finishXfer(i, u, got, st, terr)
		if err != nil {
			return nil, err
		}
		if err := sameOutcome(fmt.Sprintf("xfer_text transfer %d (traced)", i), first[i].String(), o.String()); err != nil {
			return nil, err
		}
		lats = append(lats, lat)

		r, err := replayRound(replay, k, set.codec, u, missing1)
		if err != nil {
			return nil, fmt.Errorf("transfer %d replay: %w", i, err)
		}
		roundWall += r.wall
		captures += r.captures
		frames += r.frames
		capFails += r.capFails
		ladder += r.ladder
		wins += r.wins
	}
	if err := steps.write(opts.outDir, spanFile("xfer_text-steps", opts.seed)); err != nil {
		return nil, err
	}
	if err := replay.write(opts.outDir, spanFile("xfer_text-replay", opts.seed)); err != nil {
		return nil, err
	}

	vals := map[string]float64{
		"transport.step_s":                 steps.perCall("Xfer.Step"),
		"transport.chunk_s":                replay.perCall("FileCodec.Chunk"),
		"transport.collect_s":              replay.perCall("Collector.Add"),
		"core.encode_s":                    replay.perCall("Codec.EncodeFrame"),
		"core.render_s":                    replay.perCall("Frame.Render"),
		"camera.film_s":                    replay.perCall("Camera.Film"),
		"channel.warp_s":                   replay.perCall("Channel.WarpAll"),
		"channel.photometric_s":            replay.perCall("Channel.Photometric"),
		"raster.blur_s":                    replay.perCall("Image.GaussianBlur"),
		"camera.captures_per_frame":        ratio(float64(captures), float64(frames)),
		"core.flush_s":                     replay.perCall("Receiver.Flush"),
		"core.capture_fail_frac":           ratio(float64(capFails), float64(captures)),
		"core.ladder_attempts_per_capture": ratio(float64(ladder), float64(captures)),
		"core.ladder_win_frac":             ratio(float64(wins), float64(ladder)),
	}
	batch, _ := replay.opStats("Receiver.IngestBatch")
	vals["core.ingest_s"] = ratio(batch.Seconds(), float64(captures))
	addStageMetrics(vals, mem)
	addShares(vals, replay, roundWall)
	vals["trace.overhead_frac"] = ratio(median(sortedSeconds(lats)), untracedP50) - 1
	return vals, nil
}

// roundReplay is what one replayed round observed.
type roundReplay struct {
	wall                                     time.Duration
	captures, frames, capFails, ladder, wins int
}

// replayRound drives a transfer's first round through the public calls
// transport.Session makes (chunk, encode, render, display, film, batched
// ingest, flush, collect), one span each, over a fresh link seeded like the
// unit's own. After the round, WarpAll, Photometric and GaussianBlur are
// called again on the frames each capture was filmed from, as replayed
// children of the Film span: they split Film's time into camera, channel
// and raster shares.
func replayRound(tr *tracer, unit int, codec *core.Codec, u xferUnit, wantMissing []int) (roundReplay, error) {
	var r roundReplay
	chCfg := u.sess.Link.Channel.Config()
	ch, err := channel.New(chCfg)
	if err != nil {
		return r, err
	}
	cam := u.sess.Link.Camera
	t0 := time.Now()
	fc := transport.FileCodec{Codec: codec}
	n := fc.NumChunks(len(u.data))
	imgs := make([]*raster.Image, 0, n)
	for ci := 0; ci < n; ci++ {
		end := tr.start(unit, 0, "transport", "FileCodec.Chunk")
		payload, err := fc.Chunk(u.data, ci)
		end()
		if err != nil {
			return r, err
		}
		end = tr.start(unit, 0, "core_encode", "Codec.EncodeFrame")
		f, err := codec.EncodeFrame(payload, uint16(ci), ci == n-1)
		end()
		if err != nil {
			return r, err
		}
		end = tr.start(unit, 0, "core_encode", "Frame.Render")
		imgs = append(imgs, f.Render())
		end()
	}
	end := tr.start(unit, 0, "screen", "screen.NewDisplay")
	disp, err := screen.NewDisplay(imgs, displayRate, 0)
	if err == nil {
		disp.Transition = screen.DefaultTransition
	}
	end()
	if err != nil {
		return r, err
	}
	end = tr.start(unit, 0, "camera", "Camera.Film")
	caps, err := cam.Film(disp, ch)
	filmID := end()
	if err != nil {
		return r, err
	}
	capImgs := make([]*raster.Image, len(caps))
	for i := range caps {
		capImgs[i] = caps[i].Image
	}
	rx := core.NewReceiver(codec)
	end = tr.start(unit, 0, "core_decode", "Receiver.IngestBatch")
	errs := rx.IngestBatch(capImgs)
	end()
	end = tr.start(unit, 0, "core_decode", "Receiver.Flush")
	rx.Flush()
	end()
	end = tr.start(unit, 0, "core_decode", "Receiver.Frames")
	dfs := rx.Frames()
	end()
	collector := transport.NewCollector()
	for _, df := range dfs {
		if df.Err != nil {
			continue
		}
		end = tr.start(unit, 0, "transport", "Collector.Add")
		_ = collector.Add(df.Payload)
		end()
	}
	r.wall = time.Since(t0)

	// Mirror Xfer.Step's feedback: a nil Missing (no manifest yet) keeps
	// every chunk owed; a complete collector owes none.
	missing := collector.Missing()
	if missing == nil {
		missing = make([]int, n)
		for i := range missing {
			missing[i] = i
		}
	}
	if collector.Complete() {
		missing = nil
	}
	if !slices.Equal(missing, wantMissing) {
		return r, fmt.Errorf("%w: replayed round left chunks %v missing, the transfer's first round %v", errIncorrect, missing, wantMissing)
	}
	r.captures, r.frames = len(caps), n
	for _, e := range errs {
		if e != nil {
			r.capFails++
		}
	}
	attempts, byHyp := rx.RecoveryStats()
	r.ladder = attempts
	for _, v := range byHyp {
		r.wins += v
	}

	// Replayed children of Film, on a separate identically configured
	// channel (the link's own PRNG has moved on). Photometric runs on one
	// warped frame rather than Film's row-mixed image, which has the same
	// size; the row mixing itself stays in Film's (camera) self time.
	sim, err := channel.New(chCfg)
	if err != nil {
		return r, err
	}
	sigma := filmBlurSigma(chCfg)
	for _, c := range caps {
		idx := filmSources(disp, cam, c.Start, imgs[0].H)
		var src []*raster.Image
		for _, fi := range idx {
			src = append(src, imgs[fi])
		}
		for _, fi := range c.SourceFrames {
			if !slices.Contains(idx, fi) {
				return r, fmt.Errorf("replay of capture at %v misses frame %d that Film used", c.Start, fi)
			}
		}
		end := tr.start(unit, filmID, "channel", "Channel.WarpAll")
		warped, err := sim.WarpAll(src)
		end()
		if err != nil {
			return r, err
		}
		end = tr.start(unit, filmID, "channel", "Channel.Photometric")
		photo := sim.Photometric(warped[0])
		photoID := end()
		end = tr.start(unit, photoID, "raster", "Image.GaussianBlur")
		blurred := warped[0].GaussianBlur(sigma)
		end()
		raster.Recycle(photo)
		raster.Recycle(blurred)
		for _, w := range warped {
			raster.Recycle(w)
		}
	}
	return r, nil
}

// filmSources lists the display frames Camera.Film warps for the capture
// that starts at start: every frame that shows in, or blends into, one of
// its rolling-shutter rows, in ascending order. It follows Film's own
// row-source rule, so the replayed WarpAll does the work Film did.
func filmSources(d *screen.Display, cam camera.Camera, start time.Duration, h int) []int {
	readout := time.Duration(float64(cam.Period()) * cam.ReadoutFraction)
	needed := map[int]bool{}
	for y := 0; y < h; y++ {
		a, b, _ := d.BlendAt(start + time.Duration(float64(readout)*float64(y)/float64(h)))
		if b >= 0 {
			needed[b] = true
			if a >= 0 {
				needed[a] = true
			}
		}
	}
	out := make([]int, 0, len(needed))
	for i := range needed {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// filmBlurSigma is the Gaussian blur Channel.Photometric applies: the
// configured sigma, growing with the distance from the reference. It
// copies the channel's unexported rule; TestFilmBlurSigmaMatchesPhotometric
// pins the copy against Photometric itself.
func filmBlurSigma(cfg channel.Config) float64 {
	return cfg.BlurSigma * (1 + 0.7*math.Abs(cfg.DistanceCM-channel.ReferenceDistanceCM)/channel.ReferenceDistanceCM)
}

// addStageMetrics reads the core decode stage split (busy time per call)
// from the rainbar_core_stage_seconds spans the recorder collected.
func addStageMetrics(vals map[string]float64, mem *obs.Memory) {
	want := map[string]string{}
	for _, stage := range []string{"detect", "locate", "extract", "correct"} {
		want[obs.With(obs.MCoreStageSeconds, "stage", stage)] = "core." + stage + "_s"
	}
	for _, s := range mem.Snapshot() {
		if name, ok := want[s.Name]; ok && s.Kind == "histogram" {
			vals[name] = ratio(s.Sum, float64(s.Count))
		}
	}
}

// addShares reports each layer's share of the replayed rounds' wall time
// (self time over wall time) and the trace coverage (their sum).
func addShares(vals map[string]float64, tr *tracer, wall time.Duration) {
	self := tr.selfByLayer()
	var covered time.Duration
	for layer, d := range self {
		vals["share."+layer] = ratio(d.Seconds(), wall.Seconds())
		covered += d
	}
	vals["share.simulator"] = vals["share.camera"] + vals["share.channel"] + vals["share.raster"]
	vals["trace.coverage_frac"] = ratio(covered.Seconds(), wall.Seconds())
}
