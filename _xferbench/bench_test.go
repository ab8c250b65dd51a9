package main

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
	"rainbar/internal/serve"
)

// Tiny configurations: the smallest valid barcode layout and a handful of
// units, so each workload's whole path (set-up, timed loop, gate, traced
// half) runs in a few seconds.
var (
	xferTiny = xferConfig{
		W: 400, H: 192, Block: 8, Set: 2, MinFrames: 1.5, MaxFrames: 2,
		DistanceCM: 12, MaxRounds: 4, SetupReps: 1, LatencyLimit: 10 * time.Second,
	}
	rxTiny = rxConfig{
		W: 400, H: 192, Block: 8, CleanFrames: 2, HostileFrames: 1,
		HostileAngle: 20, HostileFaults: "burst=0.3", SetupReps: 1, CaptureLimit: time.Second,
	}
	serveTiny = serveConfig{
		W: 400, H: 192, Block: 8, Sizes: []int{100, 200}, Faults: []string{"", "drop=0.2"},
		Workers: 2, MaxRounds: 4, Set: 6, SetupReps: 1, Warmup: 1, LatencyLimit: 10 * time.Second,
	}
)

func tinyRuns(t *testing.T) map[string]func(runOpts) (*outcome, error) {
	t.Helper()
	return map[string]func(runOpts) (*outcome, error){
		"xfer_text":   func(o runOpts) (*outcome, error) { return runXfer(xferTiny, o) },
		"rx_decode":   func(o runOpts) (*outcome, error) { return runRx(rxTiny, o) },
		"serve_fleet": func(o runOpts) (*outcome, error) { return runServe(serveTiny, o) },
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for name, fn := range tinyRuns(t) {
		for _, trace := range []bool{false, true} {
			opts := runOpts{seed: 3, seconds: 0.25, trace: trace, outDir: t.TempDir()}
			out, err := fn(opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := out.res
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: result %+v", name, trace, res)
			}
			want := len(endToEndUnits)
			if trace {
				want = len(layerMetrics)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
			if out.digest == "" {
				t.Errorf("%s: empty digest", name)
			}
		}
	}
}

// TestDigestRepeats: the digest covers only deterministic simulated
// outcomes, so two runs of one seed agree and another seed differs.
func TestDigestRepeats(t *testing.T) {
	run := func(seed int64) string {
		out, err := runXfer(xferTiny, runOpts{seed: seed, seconds: 0.01, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return out.digest
	}
	a, b, c := run(5), run(5), run(6)
	if a != b {
		t.Errorf("same seed, digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same digest %s", a)
	}
}

func TestGateTripsOnFlippedByte(t *testing.T) {
	want := []byte("rainbar delivers the exact bytes")
	got := append([]byte(nil), want...)
	if err := gate("unit", want, got); err != nil {
		t.Fatalf("identical payloads: %v", err)
	}
	got[7] ^= 0x01
	if err := gate("unit", want, got); !errors.Is(err, errIncorrect) {
		t.Fatalf("one flipped bit: got %v, want errIncorrect", err)
	}
	if err := gate("unit", want, got[:5]); !errors.Is(err, errIncorrect) {
		t.Fatalf("truncated payload: got %v, want errIncorrect", err)
	}
}

// TestWorkloadsAbortOnFlippedByte flips one delivered byte inside each
// workload and checks the run aborts with errIncorrect instead of
// reporting a result.
func TestWorkloadsAbortOnFlippedByte(t *testing.T) {
	tamper = func(got []byte) { got[len(got)/2] ^= 0x40 }
	defer func() { tamper = nil }()
	for name, fn := range tinyRuns(t) {
		out, err := fn(runOpts{seed: 3, seconds: 0.05, outDir: t.TempDir()})
		if !errors.Is(err, errIncorrect) {
			t.Errorf("%s: got result %v, error %v; want errIncorrect", name, out, err)
		}
	}
}

// TestFleetLatencyIncludesQueueWait: with three clients on one worker a
// session waits for about two others, and its latency, timed from its
// submission, must include that wait rather than only its own steps.
func TestFleetLatencyIncludesQueueWait(t *testing.T) {
	cfg := serveTiny
	cfg.Workers, cfg.Clients, cfg.Set = 1, 3, 9
	opts := runOpts{seed: 4, outDir: t.TempDir()}
	times := &serveTimes{}
	r, err := newRig(cfg, opts, times)
	if err != nil {
		t.Fatal(err)
	}
	times.reset()
	run, err := closedRun(cfg, r, opts.seed, 0.01, times)
	r.close()
	if err != nil {
		t.Fatal(err)
	}
	lat, step := median(sortedSeconds(run.lats)), median(sortedSeconds(times.step))
	if lat < 2*step {
		t.Errorf("median latency %.4fs, median step %.4fs: latency should include ~2 steps of queue wait", lat, step)
	}
	if w := median(sortedSeconds(times.wait)); w < step {
		t.Errorf("median queue wait %.4fs below one step %.4fs", w, step)
	}
}

// panicFactory builds the default drivers, except that the session with
// camera seed cam panics in Step.
type panicFactory struct {
	serve.Factory
	cam int64
}

type panicDriver struct{ serve.Driver }

func (panicDriver) Step() (serve.StepInfo, error) { panic("injected step panic") }

func (f panicFactory) New(spec serve.SessionSpec) (serve.Driver, error) {
	d, err := f.Factory.New(spec)
	if err != nil || spec.CamSeed != f.cam {
		return d, err
	}
	return panicDriver{d}, nil
}

// TestFleetCountsPanickedSession: a driver that panics is failed by the
// server's panic isolation without a Result call; its client must still
// be released and the run must count the session as failed, not hang.
func TestFleetCountsPanickedSession(t *testing.T) {
	cfg := serveTiny
	opts := runOpts{seed: 4, outDir: t.TempDir()}
	cfg.Factory = panicFactory{Factory: serve.DefaultFactory(nil), cam: cfg.spec(opts.seed, 2).CamSeed}
	r, err := newRig(cfg, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	type done struct {
		run *serveRun
		err error
	}
	ch := make(chan done, 1)
	go func() {
		run, err := closedRun(cfg, r, opts.seed, 0.01, nil)
		ch <- done{run, err}
	}()
	select {
	case d := <-ch:
		if d.err != nil {
			t.Fatal(d.err)
		}
		if d.run.failed != 1 || d.run.attempted != cfg.Set {
			t.Errorf("attempted %d, failed %d; want %d attempted, 1 failed", d.run.attempted, d.run.failed, cfg.Set)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("closed run hung on a panicked session")
	}
}

// TestFilmBlurSigmaMatchesPhotometric pins the copy of the channel's blur
// rule that the xfer_text replay uses: on a channel with no noise, no
// veiling light and full brightness, Photometric is exactly the Gaussian
// blur, so its output must equal the replay's blur at filmBlurSigma.
func TestFilmBlurSigmaMatchesPhotometric(t *testing.T) {
	img := raster.New(96, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range img.Pix {
		img.Pix[i] = colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
	}
	for _, d := range []float64{6, channel.ReferenceDistanceCM, xferDefault.DistanceCM, 30} {
		cfg := channel.DefaultConfig()
		cfg.DistanceCM = d
		cfg.Ambient = channel.AmbientDark
		cfg.NoiseStdDev = 0
		cfg.ChromaNoiseStdDev = 0
		ch, err := channel.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := ch.Photometric(img)
		want := img.GaussianBlur(filmBlurSigma(cfg))
		if !slices.Equal(got.Pix, want.Pix) {
			t.Errorf("distance %v cm: Photometric differs from GaussianBlur(%v)", d, filmBlurSigma(cfg))
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i)
	}
	v, p := tail(s)
	if v != 89 || p != 0.9 {
		t.Errorf("tail of 0..99 = %v at %v, want 89 at 0.9", v, p)
	}
	if v, p := tail(s[:15]); v != 7 || p != 0.5 {
		t.Errorf("tail of 15 samples = %v at %v, want the median 7 at 0.5", v, p)
	}
}
