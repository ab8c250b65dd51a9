package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/faults"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
	"rainbar/internal/workload"
)

// rxConfig sizes the rx_decode workload: receiver decode only, over a
// capture stream filmed once during set-up. The stream has a clean
// head-on segment and a hostile one (steep view plus splice, occlusion and
// burst faults) so the recovery ladder fires.
type rxConfig struct {
	W, H, Block   int
	CleanFrames   int
	HostileFrames int
	HostileAngle  float64
	HostileFaults string
	SetupReps     int
	// CaptureLimit is the per-capture SLO: one camera period at 30 fps,
	// the rate a live receiver must keep up with.
	CaptureLimit time.Duration
}

var rxDefault = rxConfig{
	W: 1280, H: 720, Block: 13,
	CleanFrames: 10, HostileFrames: 8,
	HostileAngle:  20,
	HostileFaults: "splice=0.1,burst=0.5,occlude=0.1",
	SetupReps:     3,
	CaptureLimit:  time.Second / 30,
}

// rxStream is rx_decode's set-up product.
type rxStream struct {
	codec    *core.Codec
	chunks   [][]byte // payload by sequence number
	captures []*raster.Image
	slots    int // capture slots filmed, dropped ones included
	dropped  int
}

// filmRx encodes the stream's frames and films the two segments.
func filmRx(cfg rxConfig, seed int64) (*rxStream, error) {
	geo, err := layout.NewGeometry(cfg.W, cfg.H, cfg.Block)
	if err != nil {
		return nil, err
	}
	codec, err := core.NewCodec(core.Config{Geometry: geo, DisplayRate: displayRate, RecoveryBudget: core.DefaultRecoveryBudget})
	if err != nil {
		return nil, err
	}
	st := &rxStream{codec: codec}
	n := cfg.CleanFrames + cfg.HostileFrames
	imgs := make([]*raster.Image, n)
	for seq := 0; seq < n; seq++ {
		payload := workload.Random(codec.FrameCapacity(), mix(seed, uint64(seq), 10))
		f, err := codec.EncodeFrame(payload, uint16(seq), seq == n-1)
		if err != nil {
			return nil, err
		}
		st.chunks = append(st.chunks, payload)
		imgs[seq] = f.Render()
	}
	segments := []struct {
		frames []*raster.Image
		angle  float64
		faults string
	}{
		{imgs[:cfg.CleanFrames], 0, ""},
		{imgs[cfg.CleanFrames:], cfg.HostileAngle, cfg.HostileFaults},
	}
	for si, seg := range segments {
		if len(seg.frames) == 0 {
			continue
		}
		disp, err := screen.NewDisplay(seg.frames, displayRate, 0)
		if err != nil {
			return nil, err
		}
		disp.Transition = screen.DefaultTransition
		chCfg := channel.DefaultConfig()
		chCfg.ViewAngleDeg = seg.angle
		chCfg.Seed = mix(seed, uint64(si), 11)
		ch, err := channel.New(chCfg)
		if err != nil {
			return nil, err
		}
		cam := camera.Default()
		cam.Seed = mix(seed, uint64(si), 12)
		if seg.faults != "" {
			chain, err := faults.ParseSpec(fmt.Sprintf("%s,seed=%d", seg.faults, mix(seed, uint64(si), 13)&0x7FFFFFFF))
			if err != nil {
				return nil, err
			}
			cam.Faults = chain
		}
		caps, err := cam.Film(disp, ch)
		if err != nil {
			return nil, err
		}
		for _, c := range caps {
			st.captures = append(st.captures, c.Image)
		}
		st.slots += len(caps) + cam.Faults.Drops()
		st.dropped += cam.Faults.Drops()
	}
	return st, nil
}

// rxPass is one replay of the stream into a fresh receiver.
type rxPass struct {
	ingest    []time.Duration
	wall      time.Duration
	delivered int
	capFails  int
	ladder    int
	wins      int
	outcome   string // deterministic per-capture and per-frame outcomes
}

// decodeRx replays the stream one Ingest call per capture, as a phone
// receives it, then flushes and gates every delivered frame against the
// chunk set-up encoded under that sequence number. tr, when non-nil,
// records one span per call.
func decodeRx(st *rxStream, codec *core.Codec, tr *tracer, unit int) (rxPass, error) {
	var p rxPass
	var b strings.Builder
	span := func(op string) func() int {
		if tr == nil {
			return func() int { return 0 }
		}
		return tr.start(unit, 0, "core_decode", op)
	}
	p.ingest = make([]time.Duration, len(st.captures))
	t0 := time.Now()
	rx := core.NewReceiver(codec)
	for i, img := range st.captures {
		end := span("Receiver.Ingest")
		c0 := time.Now()
		err := rx.Ingest(img)
		p.ingest[i] = time.Since(c0)
		end()
		if err != nil {
			p.capFails++
			fmt.Fprintf(&b, "c%d:%s ", i, core.ClassifyFailure(err))
		}
	}
	end := span("Receiver.Flush")
	rx.Flush()
	end()
	end = span("Receiver.Frames")
	frames := rx.Frames()
	end()
	p.wall = time.Since(t0)

	for _, df := range frames {
		seq := int(df.Header.Seq)
		if df.Err != nil {
			fmt.Fprintf(&b, "f%d:lost ", seq)
			continue
		}
		// A frame that passed its checks under a sequence number the
		// stream never sent is a wrong delivery, not a loss.
		if seq >= len(st.chunks) {
			return p, fmt.Errorf("%w: rx_decode delivered frame %d, the stream has %d", errIncorrect, seq, len(st.chunks))
		}
		got := df.Payload
		if tamper != nil {
			got = append([]byte(nil), got...)
			tamper(got)
		}
		if err := gate(fmt.Sprintf("rx_decode frame %d", seq), st.chunks[seq], got); err != nil {
			return p, err
		}
		p.delivered++
		fmt.Fprintf(&b, "f%d:ok ", seq)
	}
	attempts, byHyp := rx.RecoveryStats()
	p.ladder = attempts
	for _, v := range byHyp {
		p.wins += v
	}
	fmt.Fprintf(&b, "ladder=%d wins=%d", p.ladder, p.wins)
	p.outcome = b.String()
	return p, nil
}

func runRx(cfg rxConfig, opts runOpts) (*outcome, error) {
	st, setupS, err := medianSetup(cfg.SetupReps, func() (*rxStream, error) {
		st, err := filmRx(cfg, opts.seed)
		if err != nil {
			return nil, err
		}
		// Warm-up pass: decode scratch and pools fill before timing.
		if _, err := decodeRx(st, st.codec, nil, 0); err != nil {
			return nil, err
		}
		return st, nil
	}, func(*rxStream) {
		// Collect the previous stream before filming the next, so the
		// resident set does not depend on when the collector happens to run.
		runtime.GC()
	})
	if err != nil {
		return nil, err
	}
	if len(st.captures) == 0 {
		return nil, fmt.Errorf("stream filmed no captures")
	}
	seconds := opts.seconds
	if opts.trace {
		seconds /= 2
	}
	var first string
	perCap := make([][]time.Duration, len(st.captures))
	var passWalls []time.Duration
	passes, sloMet := 0, 0
	var last rxPass
	opts.timedStart()
	alloc := startAlloc()
	deadline := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for passes == 0 || time.Since(start) < deadline {
		p, err := decodeRx(st, st.codec, nil, passes)
		if err != nil {
			return nil, err
		}
		if passes == 0 {
			first = p.outcome
		} else if err := sameOutcome("rx_decode pass", first, p.outcome); err != nil {
			return nil, err
		}
		for _, d := range p.ingest {
			if d <= cfg.CaptureLimit {
				sloMet++
			}
		}
		addPerCapture(perCap, p.ingest)
		passWalls = append(passWalls, p.wall)
		passes++
		last = p
	}
	attempted := passes * len(st.captures)
	allocPer := alloc.mbPer(attempted)

	var dg digester
	dg.add("captures=%d slots=%d dropped=%d", len(st.captures), st.slots, st.dropped)
	dg.add("%s", first)
	out := &outcome{digest: dg.sum(), notes: map[string]any{
		"passes": passes, "captures_per_pass": len(st.captures), "frames": len(st.chunks),
	}}
	sorted := captureMedians(perCap)
	tailV, tailP := tail(sorted)
	out.notes["latency_tail_pct"] = tailP
	if !opts.trace {
		rss, err := opts.rssMB()
		if err != nil {
			return nil, err
		}
		// The stream's simulated air time: every frame is on screen for one
		// display period.
		air := float64(len(st.chunks)) / displayRate
		payload := float64(last.delivered * st.codec.FrameCapacity())
		vals := map[string]float64{
			"setup_s":        setupS,
			"latency_p50_s":  median(sorted),
			"latency_tail_s": tailV,
			// Captures per host second of the median pass (Ingest of every
			// capture, then Flush and Frames).
			"throughput_per_s": float64(len(st.captures)) / median(sortedSeconds(passWalls)),
			"delivered_frac":   ratio(float64(last.delivered), float64(len(st.chunks))),
			"goodput_Bps":      payload / air,
			"slo_met_frac":     ratio(float64(sloMet), float64(attempted)),
			"rss_mb":           rss,
		}
		m, err := metricSet(false, vals)
		if err != nil {
			return nil, err
		}
		out.res = result{Correct: true, Attempted: attempted, Failed: 0, Metrics: m}
		return out, nil
	}

	vals, err := traceRx(st, opts, first, median(sorted), seconds)
	if err != nil {
		return nil, err
	}
	vals["go.alloc_mb_per_unit"] = allocPer
	vals["faults.drop_frac"] = ratio(float64(st.dropped), float64(st.slots))
	vals["camera.captures_per_frame"] = ratio(float64(st.slots), float64(len(st.chunks)))
	m, err := metricSet(true, vals)
	if err != nil {
		return nil, err
	}
	out.res = result{Correct: true, Attempted: attempted, Failed: 0, Metrics: m}
	return out, nil
}

// traceRx is the traced half of an rx_decode run: the same replay on a
// codec of the same format that carries an obs.Memory recorder (the core
// stage spans), with a span around every receiver call. Nothing in the
// timed region touches the simulator, so its per-layer times read 0.
func traceRx(st *rxStream, opts runOpts, first string, untracedP50, seconds float64) (map[string]float64, error) {
	mem := obs.NewMemory()
	cfg := st.codec.Config()
	cfg.Recorder = mem
	codec, err := core.NewCodec(cfg)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	perCap := make([][]time.Duration, len(st.captures))
	var wall time.Duration
	captures, capFails, ladder, wins := 0, 0, 0, 0
	deadline := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < deadline; k++ {
		p, err := decodeRx(st, codec, tr, k)
		if err != nil {
			return nil, err
		}
		if err := sameOutcome("rx_decode pass (traced)", first, p.outcome); err != nil {
			return nil, err
		}
		addPerCapture(perCap, p.ingest)
		wall += p.wall
		captures += len(p.ingest)
		capFails += p.capFails
		ladder += p.ladder
		wins += p.wins
	}
	if err := tr.write(opts.outDir, spanFile("rx_decode", opts.seed)); err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"core.ingest_s":                    tr.perCall("Receiver.Ingest"),
		"core.flush_s":                     tr.perCall("Receiver.Flush"),
		"core.capture_fail_frac":           ratio(float64(capFails), float64(captures)),
		"core.ladder_attempts_per_capture": ratio(float64(ladder), float64(captures)),
		"core.ladder_win_frac":             ratio(float64(wins), float64(ladder)),
		"trace.overhead_frac":              ratio(median(captureMedians(perCap)), untracedP50) - 1,
	}
	addStageMetrics(vals, mem)
	addShares(vals, tr, wall)
	return vals, nil
}

// addPerCapture files one pass's Ingest times under their capture.
func addPerCapture(perCap [][]time.Duration, ingest []time.Duration) {
	for i, d := range ingest {
		perCap[i] = append(perCap[i], d)
	}
}

// captureMedians returns each capture's median Ingest time over the
// passes, ascending. rx_decode's latency samples are these per-capture
// medians: the stream is replayed many times, and taking each capture's
// median keeps a passing hiccup of the host out of the distribution, while
// the tail (ten captures beyond it) is set by distinct captures rather
// than by repeats of the single slowest one.
func captureMedians(perCap [][]time.Duration) []float64 {
	out := make([]float64, len(perCap))
	for i, ds := range perCap {
		out[i] = median(sortedSeconds(ds))
	}
	sort.Float64s(out)
	return out
}
