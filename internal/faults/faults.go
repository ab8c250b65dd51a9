// Package faults is a composable fault-injection layer for the simulated
// optical link. The channel model in internal/channel degrades captures
// smoothly (blur, noise, veiling light); real screen-camera links also fail
// abruptly — a capture lost outright to motion blur, a rolling-shutter
// readout spliced across a frame boundary, an occluding thumb over a corner
// tracker, auto-exposure hunting between frames. Each such failure mode is
// an Injector here; a Chain composes them and is wired through
// channel.Channel (single captures) and camera.Camera (filmed streams).
//
// Determinism contract: every injector decision for capture k is drawn from
// a PRNG seeded purely by (Chain.Seed, injector position, k). Faults on one
// capture therefore never depend on how many captures preceded it, which
// goroutine processed it, or what other injectors did — two runs with the
// same seed produce bit-identical fault patterns, and a single capture can
// be replayed in isolation.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"rainbar/internal/colorspace"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// ErrFrameDropped is returned by capture paths when the injector chain
// discarded the capture outright (whole-frame loss).
var ErrFrameDropped = errors.New("faults: frame dropped")

// Outcome reports what an injector did to one capture.
type Outcome int

// Injector outcomes.
const (
	// OutcomeNone: the injector left this capture untouched.
	OutcomeNone Outcome = iota
	// OutcomeApplied: the injector corrupted the capture in place.
	OutcomeApplied
	// OutcomeDropped: the capture is lost entirely; later injectors do not
	// run and the capture must not reach the decoder.
	OutcomeDropped
)

// Injector is one fault class. Apply may mutate img in place; all
// randomness must come from rng, which the Chain derives purely from
// (seed, injector position, frame index).
type Injector interface {
	// Name identifies the fault class in counters and specs.
	Name() string
	// Apply injects the fault into capture img with index frame.
	Apply(img *raster.Image, frame int, rng *rand.Rand) Outcome
}

// Chain applies a fixed sequence of injectors to each capture. The zero
// value (or a nil *Chain) is a no-op. Apply mutates the per-class counters,
// so a Chain must not be shared across goroutines; clone one per worker
// with CloneFresh.
type Chain struct {
	// Seed drives every injector decision; see the package determinism
	// contract.
	Seed int64
	// Injectors run in order; a drop short-circuits the rest.
	Injectors []Injector
	// Recorder, when set, mirrors every per-class application count as a
	// labeled rainbar_faults_injected_total series. Fault decisions never
	// depend on it.
	Recorder obs.Recorder

	counts map[string]int
	drops  int
}

// NewChain builds a chain over the given injectors.
func NewChain(seed int64, inj ...Injector) *Chain {
	return &Chain{Seed: seed, Injectors: inj}
}

// CloneFresh returns a chain with the same seed and injectors but zeroed
// counters, for handing to another goroutine or a fresh run.
func (c *Chain) CloneFresh() *Chain {
	if c == nil {
		return nil
	}
	return &Chain{Seed: c.Seed, Injectors: c.Injectors, Recorder: c.Recorder}
}

// SplitMix64 is the standard splitmix64 avalanche mixer; it turns the
// structured (seed, injector, frame) triple into uncorrelated PRNG seeds.
// The channel's keyed per-row sensor noise uses the same mixer.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rngFor derives the PRNG for injector position i on capture frame.
func (c *Chain) rngFor(i, frame int) *rand.Rand {
	h := SplitMix64(uint64(c.Seed) ^ SplitMix64(uint64(i)<<32|uint64(uint32(frame))))
	// Determinism contract (RB-D2): locally seeded *rand.Rand — fault
	// decisions are a pure function of (chain seed, injector position,
	// capture index), independent of evaluation order or host state.
	return rand.New(rand.NewSource(int64(h)))
}

// Apply runs the chain on capture img with index frame. It returns false
// when the capture was dropped; the image contents are then unspecified.
// A nil chain keeps every capture untouched.
func (c *Chain) Apply(img *raster.Image, frame int) (kept bool) {
	if c == nil {
		return true
	}
	for i, inj := range c.Injectors {
		switch inj.Apply(img, frame, c.rngFor(i, frame)) {
		case OutcomeApplied:
			c.record(inj.Name())
		case OutcomeDropped:
			c.record(inj.Name())
			c.drops++
			return false
		}
	}
	return true
}

func (c *Chain) record(name string) {
	if c.counts == nil {
		c.counts = make(map[string]int)
	}
	c.counts[name]++
	if obs.Enabled(c.Recorder) {
		c.Recorder.Inc(obs.With(obs.MFaultsInjected, "class", name), 1)
	}
}

// Counters returns a copy of the per-class application counts accumulated
// since construction (or the last Reset). Dropped captures count both in
// their class and in Drops.
func (c *Chain) Counters() map[string]int {
	if c == nil || len(c.counts) == 0 {
		return nil
	}
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Drops returns the number of captures discarded by the chain.
func (c *Chain) Drops() int {
	if c == nil {
		return 0
	}
	return c.drops
}

// Reset zeroes the counters.
func (c *Chain) Reset() {
	if c != nil {
		c.counts, c.drops = nil, 0
	}
}

// String summarizes the chain's injector classes.
func (c *Chain) String() string {
	if c == nil || len(c.Injectors) == 0 {
		return "faults: none"
	}
	s := "faults:"
	for _, inj := range c.Injectors {
		s += " " + inj.Name()
	}
	return s
}

// --- injectors ---

// FrameDrop loses whole captures with probability P: the motion-blur and
// defocus events that destroy a capture beyond any decoding (PAPERS.md,
// "An Image Processing Based Blur Reduction Technique...").
type FrameDrop struct {
	// P is the per-capture drop probability in [0, 1].
	P float64
}

// Name implements Injector.
func (FrameDrop) Name() string { return "drop" }

// Apply implements Injector.
func (f FrameDrop) Apply(_ *raster.Image, _ int, rng *rand.Rand) Outcome {
	if rng.Float64() < f.P {
		return OutcomeDropped
	}
	return OutcomeNone
}

// PartialFrame models rolling-shutter readout failures at a frame boundary
// (PAPERS.md, "A Novel Frame Identification and Synchronization
// Technique..."): with probability P the capture is cut at a random row.
// Truncation blanks everything below the cut (readout aborted); splice
// instead re-reads the capture's own top rows below the cut, producing the
// stitched two-partial-frames image a misidentified frame boundary yields.
type PartialFrame struct {
	// P is the per-capture probability.
	P float64
	// Splice selects splice (true) over truncation (false).
	Splice bool
	// MinFrac, MaxFrac bound the cut row as a fraction of image height
	// (defaults 0.3, 0.7 when both zero).
	MinFrac, MaxFrac float64
}

// Name implements Injector.
func (p PartialFrame) Name() string {
	if p.Splice {
		return "splice"
	}
	return "truncate"
}

// Apply implements Injector.
func (p PartialFrame) Apply(img *raster.Image, _ int, rng *rand.Rand) Outcome {
	if rng.Float64() >= p.P {
		return OutcomeNone
	}
	lo, hi := p.MinFrac, p.MaxFrac
	if lo == 0 && hi == 0 {
		lo, hi = 0.3, 0.7
	}
	cut := int(float64(img.H) * (lo + rng.Float64()*(hi-lo)))
	if cut < 1 {
		cut = 1
	}
	if cut >= img.H {
		cut = img.H - 1
	}
	if p.Splice {
		// Rows below the cut replay the frame from its own top: the readout
		// latched onto the next display frame, which (worst case for the
		// decoder) shows the same geometry with the wrong rows. Snapshot the
		// source band first — when the replay is taller than the cut the
		// ranges overlap and an in-place copy would tile the top band.
		src := make([]colorspace.RGB, (img.H-cut)*img.W)
		copy(src, img.Pix[:len(src)])
		copy(img.Pix[cut*img.W:], src)
	} else {
		for i := cut * img.W; i < len(img.Pix); i++ {
			img.Pix[i] = colorspace.RGB{}
		}
	}
	return OutcomeApplied
}

// BurstBlocks wipes horizontal bands of the capture with saturated random
// pixels, modeling bursty sensor/ISP corruption that destroys whole block
// rows at once.
type BurstBlocks struct {
	// P is the per-capture probability.
	P float64
	// MaxBursts bounds bands per afflicted capture (default 2).
	MaxBursts int
	// MinPx, MaxPx bound each band's height in pixels (defaults 8, 32).
	MinPx, MaxPx int
}

// Name implements Injector.
func (BurstBlocks) Name() string { return "burst" }

// Apply implements Injector.
func (b BurstBlocks) Apply(img *raster.Image, _ int, rng *rand.Rand) Outcome {
	if rng.Float64() >= b.P {
		return OutcomeNone
	}
	maxBursts := b.MaxBursts
	if maxBursts <= 0 {
		maxBursts = 2
	}
	minPx, maxPx := b.MinPx, b.MaxPx
	if minPx <= 0 {
		minPx = 8
	}
	if maxPx < minPx {
		maxPx = minPx + 24
	}
	n := 1 + rng.Intn(maxBursts)
	for k := 0; k < n; k++ {
		h := minPx + rng.Intn(maxPx-minPx+1)
		y0 := rng.Intn(img.H)
		y1 := min(y0+h, img.H)
		for y := y0; y < y1; y++ {
			row := img.Pix[y*img.W : (y+1)*img.W]
			for x := range row {
				row[x] = colorspace.RGB{
					R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)),
				}
			}
		}
	}
	return OutcomeApplied
}

// Occlusion paints opaque patches over the capture — a finger, a sticker,
// glare. With Corners set, patches target the capture's corner regions,
// which is where RainBar keeps its corner trackers and the starts of its
// locator columns (§III-E); that is the occlusion that actually hurts.
type Occlusion struct {
	// P is the per-capture probability.
	P float64
	// MaxPatches bounds patches per afflicted capture (default 1).
	MaxPatches int
	// MinFrac, MaxFrac bound each patch's side as a fraction of the shorter
	// image dimension (defaults 0.08, 0.2).
	MinFrac, MaxFrac float64
	// Corners aims the patches at the four corner quadrants.
	Corners bool
}

// Name implements Injector.
func (Occlusion) Name() string { return "occlude" }

// Apply implements Injector.
func (o Occlusion) Apply(img *raster.Image, _ int, rng *rand.Rand) Outcome {
	if rng.Float64() >= o.P {
		return OutcomeNone
	}
	maxPatches := o.MaxPatches
	if maxPatches <= 0 {
		maxPatches = 1
	}
	lo, hi := o.MinFrac, o.MaxFrac
	if lo == 0 && hi == 0 {
		lo, hi = 0.08, 0.2
	}
	short := min(img.W, img.H)
	n := 1 + rng.Intn(maxPatches)
	for k := 0; k < n; k++ {
		side := int(float64(short) * (lo + rng.Float64()*(hi-lo)))
		if side < 2 {
			side = 2
		}
		var x0, y0 int
		if o.Corners {
			// A corner quadrant, offset so the patch overlaps the corner
			// tracker's neighborhood rather than the exact image corner
			// (the warp leaves a dark surround there anyway).
			cx := []int{img.W / 8, img.W - img.W/8 - side}[rng.Intn(2)]
			cy := []int{img.H / 8, img.H - img.H/8 - side}[rng.Intn(2)]
			x0, y0 = cx+rng.Intn(side/2+1), cy+rng.Intn(side/2+1)
		} else {
			x0, y0 = rng.Intn(img.W), rng.Intn(img.H)
		}
		// Matte gray: neither a data color nor structural black.
		img.FillRect(x0, y0, side, side, colorspace.RGB{R: 105, G: 105, B: 105})
	}
	return OutcomeApplied
}

// ExposureFlicker scales brightness by a sinusoid of the frame index —
// auto-exposure hunting / mains flicker. It is a pure function of the frame
// index (no random draws), the strictest form of the determinism contract.
type ExposureFlicker struct {
	// Amplitude is the peak relative gain deviation (e.g. 0.35 swings
	// brightness between 0.65x and 1.35x).
	Amplitude float64
	// PeriodFrames is the flicker period in captures (default 5).
	PeriodFrames float64
}

// Name implements Injector.
func (ExposureFlicker) Name() string { return "flicker" }

// Apply implements Injector.
func (e ExposureFlicker) Apply(img *raster.Image, frame int, _ *rand.Rand) Outcome {
	if e.Amplitude == 0 {
		return OutcomeNone
	}
	period := e.PeriodFrames
	if period <= 0 {
		period = 5
	}
	gain := 1 + e.Amplitude*math.Sin(2*math.Pi*float64(frame)/period)
	if gain == 1 {
		return OutcomeNone
	}
	scalePix(img, gain)
	return OutcomeApplied
}

// SaturationClip overexposes the capture with probability P: all channels
// are scaled by Gain and clipped at 255, blowing out highlights so that
// white, and the brightest parts of red/green/blue blocks, merge — the
// failure HSV classification is most sensitive to.
type SaturationClip struct {
	// P is the per-capture probability.
	P float64
	// Gain is the overexposure factor (default 1.8).
	Gain float64
}

// Name implements Injector.
func (SaturationClip) Name() string { return "clip" }

// Apply implements Injector.
func (s SaturationClip) Apply(img *raster.Image, _ int, rng *rand.Rand) Outcome {
	if rng.Float64() >= s.P {
		return OutcomeNone
	}
	gain := s.Gain
	if gain <= 0 {
		gain = 1.8
	}
	scalePix(img, gain)
	return OutcomeApplied
}

func scalePix(img *raster.Image, gain float64) {
	scale := func(v uint8) uint8 {
		f := float64(v) * gain
		if f > 255 {
			return 255
		}
		if f < 0 {
			return 0
		}
		return uint8(f + 0.5)
	}
	for i, p := range img.Pix {
		img.Pix[i] = colorspace.RGB{R: scale(p.R), G: scale(p.G), B: scale(p.B)}
	}
}

// --- spec parsing ---

// ParseSpec builds a chain from a compact CLI spec: comma-separated
// key=value pairs, one per fault class, e.g.
//
//	"drop=0.1,splice=0.05,truncate=0.1,burst=0.1,occlude=0.1,flicker=0.3,clip=0.05,seed=7"
//
// Values are per-capture probabilities except flicker (amplitude) and seed.
// Injector order is canonical (the order above), independent of spec order,
// so equal specs build identical chains. An empty spec returns a nil chain.
func ParseSpec(spec string) (*Chain, error) {
	if spec == "" {
		return nil, nil
	}
	vals := map[string]float64{}
	var seed int64 = 1
	for _, field := range splitComma(spec) {
		k, v, err := parsePair(field)
		if err != nil {
			return nil, err
		}
		if k == "seed" {
			seed = int64(v)
			continue
		}
		if _, ok := specOrder[k]; !ok {
			return nil, fmt.Errorf("faults: unknown fault class %q in spec", k)
		}
		if k != "flicker" && (v < 0 || v > 1) {
			return nil, fmt.Errorf("faults: %s=%v out of [0, 1]", k, v)
		}
		vals[k] = v
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return specOrder[keys[i]] < specOrder[keys[j]] })
	var inj []Injector
	for _, k := range keys {
		v := vals[k]
		if v == 0 {
			continue
		}
		switch k {
		case "drop":
			inj = append(inj, FrameDrop{P: v})
		case "splice":
			inj = append(inj, PartialFrame{P: v, Splice: true})
		case "truncate":
			inj = append(inj, PartialFrame{P: v})
		case "burst":
			inj = append(inj, BurstBlocks{P: v})
		case "occlude":
			inj = append(inj, Occlusion{P: v, Corners: true})
		case "flicker":
			inj = append(inj, ExposureFlicker{Amplitude: v})
		case "clip":
			inj = append(inj, SaturationClip{P: v})
		}
	}
	if len(inj) == 0 {
		return nil, nil
	}
	return NewChain(seed, inj...), nil
}

// specOrder fixes the canonical injector order within a parsed chain.
var specOrder = map[string]int{
	"drop": 0, "splice": 1, "truncate": 2, "burst": 3,
	"occlude": 4, "flicker": 5, "clip": 6,
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func parsePair(field string) (string, float64, error) {
	for i := 0; i < len(field); i++ {
		if field[i] == '=' {
			v, err := strconv.ParseFloat(field[i+1:], 64)
			if err != nil {
				return "", 0, fmt.Errorf("faults: bad value in %q", field)
			}
			return field[:i], v, nil
		}
	}
	return "", 0, fmt.Errorf("faults: field %q is not key=value", field)
}
