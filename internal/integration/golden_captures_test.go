package integration

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/faults"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
	"rainbar/internal/workload"
)

var updateCaptures = flag.Bool("update-captures", false, "rewrite testdata/golden_captures.json from current simulator output")

const goldenCapturesPath = "testdata/golden_captures.json"

// captureCase is one simulated working condition of the capture golden:
// the screen geometry, the channel condition, the display rate and an
// optional fault spec shared by the camera and the channel.
type captureCase struct {
	name      string
	w, h, bs  int
	rate      float64 // display rate f_d; above 15 fps a 30 fps capture mixes frames
	ambient   channel.Ambient
	distance  float64
	angle     float64
	chroma    bool
	chromaPx  int
	motion    int
	noise     float64 // sensor noise sigma; -1 keeps the default
	blur      float64 // defocus sigma; -1 keeps the default
	faultSpec string
	jitter    time.Duration // camera timing jitter
}

// captureCases crosses every simulator axis at least once: the three
// ambients, 8 and 18 cm, 0 and ±20°, chroma noise on and off (with a patch
// size that does not divide the width), motion blur 0 and 5 px, a display
// rate above f_c/2, a fault chain, both resolutions, and the degenerate
// no-noise and no-defocus paths.
var captureCases = []captureCase{
	{name: "indoor-8cm-0deg", w: 640, h: 360, bs: 12, rate: 10, ambient: channel.AmbientIndoor, distance: 8, noise: -1, blur: -1},
	{name: "outdoor-18cm-p20", w: 640, h: 360, bs: 12, rate: 10, ambient: channel.AmbientOutdoor, distance: 18, angle: 20, noise: -1, blur: -1},
	{name: "dark-8cm-m20-nonoise", w: 640, h: 360, bs: 12, rate: 10, ambient: channel.AmbientDark, distance: 8, angle: -20, noise: 0, blur: -1},
	{name: "indoor-18cm-0deg-chroma", w: 640, h: 360, bs: 12, rate: 10, ambient: channel.AmbientIndoor, distance: 18, chroma: true, noise: -1, blur: -1},
	{name: "indoor-8cm-p20-chroma7-motion5", w: 640, h: 360, bs: 12, rate: 10, ambient: channel.AmbientIndoor, distance: 8, angle: 20, chroma: true, chromaPx: 7, motion: 5, noise: -1, blur: -1},
	{name: "outdoor-18cm-m20-motion5-mixed", w: 640, h: 360, bs: 12, rate: 20, ambient: channel.AmbientOutdoor, distance: 18, angle: -20, motion: 5, noise: -1, blur: -1},
	{name: "indoor-8cm-0deg-chroma-mixed-jitter", w: 640, h: 360, bs: 12, rate: 24, ambient: channel.AmbientIndoor, distance: 8, chroma: true, noise: -1, blur: -1, jitter: 4 * time.Millisecond},
	{name: "dark-18cm-p20-noblur-motion5", w: 640, h: 360, bs: 12, rate: 10, ambient: channel.AmbientDark, distance: 18, angle: 20, motion: 5, noise: -1, blur: 0},
	{name: "indoor-18cm-m20-faults", w: 640, h: 360, bs: 12, rate: 20, ambient: channel.AmbientIndoor, distance: 18, angle: -20, chroma: true, noise: -1, blur: -1,
		faultSpec: "drop=0.2,splice=0.4,truncate=0.2,burst=0.5,occlude=0.4,flicker=0.2,clip=0.3,seed=5"},
	{name: "hd-indoor-8cm-0deg", w: 1280, h: 720, bs: 13, rate: 10, ambient: channel.AmbientIndoor, distance: 8, noise: -1, blur: -1},
	{name: "hd-outdoor-18cm-m20-chroma-motion5-mixed", w: 1280, h: 720, bs: 13, rate: 20, ambient: channel.AmbientOutdoor, distance: 18, angle: -20, chroma: true, motion: 5, noise: -1, blur: -1},
}

func (c captureCase) channelConfig() channel.Config {
	cfg := channel.DefaultConfig()
	cfg.Ambient = c.ambient
	cfg.DistanceCM = c.distance
	cfg.ViewAngleDeg = c.angle
	cfg.MotionBlurPx = c.motion
	if c.chroma {
		cfg.ChromaNoiseStdDev = 6
		cfg.ChromaNoiseScalePx = c.chromaPx
	}
	if c.noise >= 0 {
		cfg.NoiseStdDev = c.noise
	}
	if c.blur >= 0 {
		cfg.BlurSigma = c.blur
	}
	cfg.Seed = 17
	return cfg
}

func (c captureCase) chain(t *testing.T) *faults.Chain {
	t.Helper()
	ch, err := faults.ParseSpec(c.faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// frames renders two encoded frames of the case's geometry.
func (c captureCase) frames(t *testing.T) []*raster.Image {
	t.Helper()
	geo, err := layout.NewGeometry(c.w, c.h, c.bs)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := core.NewCodec(core.Config{Geometry: geo, DisplayRate: 10})
	if err != nil {
		t.Fatal(err)
	}
	var out []*raster.Image
	for seq := 0; seq < 2; seq++ {
		f, err := codec.EncodeFrame(workload.Random(codec.FrameCapacity(), int64(seq+3)), uint16(seq), seq == 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f.Render())
	}
	return out
}

// captureGoldens films every case through Camera.Film and runs each frame
// through Channel.Capture on a fresh channel, hashing every capture's
// pixels together with its provenance.
func captureGoldens(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range captureCases {
		frames := c.frames(t)
		disp, err := screen.NewDisplay(frames, c.rate, 0)
		if err != nil {
			t.Fatal(err)
		}
		disp.Transition = screen.DefaultTransition
		cam := camera.Default()
		cam.Faults = c.chain(t)
		cam.TimingJitter = c.jitter
		cam.Seed = 9
		caps, err := cam.Film(disp, channel.MustNew(c.channelConfig()))
		if err != nil {
			t.Fatal(err)
		}
		for k, cp := range caps {
			key := fmt.Sprintf("%s/film/%d", c.name, k)
			out[key] = hashImage(cp.Image) + fmt.Sprintf(" start=%v src=%v rows=%v", cp.Start, cp.SourceFrames, cp.RowBoundaries)
		}
		ch := channel.MustNew(c.channelConfig())
		ch.Faults = c.chain(t)
		for i, f := range frames {
			key := fmt.Sprintf("%s/capture/%d", c.name, i)
			img, err := ch.Capture(f)
			switch {
			case errors.Is(err, channel.ErrFrameDropped):
				out[key] = "dropped"
			case err != nil:
				t.Fatal(err)
			default:
				out[key] = hashImage(img)
			}
		}
	}
	return out
}

// TestGoldenCaptures pins the simulated screen-to-camera path bit for bit:
// Camera.Film (rolling-shutter mixing, warp, blur, noise, photometrics,
// faults) and Channel.Capture over a fixed matrix of conditions, at
// GOMAXPROCS 1, 2 and 3 (3 splits the rows into bands other than 1|2).
// The simulator's row-parallel warp, blur and keyed-noise photometric
// pass must not change a single output bit with the worker count. A failure
// means simulated pixels moved; that is only legitimate in a change that
// deliberately alters the channel model, which regenerates the corpus with
// `go test ./internal/integration -run GoldenCaptures -update-captures`.
func TestGoldenCaptures(t *testing.T) {
	if *updateCaptures {
		got := captureGoldens(t)
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCapturesPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d capture hashes to %s", len(got), goldenCapturesPath)
		return
	}
	blob, err := os.ReadFile(goldenCapturesPath)
	if err != nil {
		t.Fatalf("read capture golden (regenerate with -update-captures): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenCapturesPath, err)
	}
	for _, procs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := captureGoldens(t)
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				w, ok := want[k]
				if !ok {
					t.Errorf("%s: missing from capture golden", k)
					continue
				}
				if got[k] != w {
					t.Errorf("%s: simulated capture changed\n got %s\nwant %s", k, got[k], w)
				}
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("%s: in capture golden but no longer generated", k)
				}
			}
		})
	}
}
