// Package channel simulates the screen-to-camera optical channel that the
// paper's evaluation exercises on real phones (§II, §IV). It replaces the
// physical Galaxy S4 screen/camera pair with a deterministic, seeded model
// of the same impairments, each mapped to an evaluation axis:
//
//   - distance (d)            -> projected scale (pinhole model)
//   - view angle (v_a)        -> perspective homography
//   - lens distortion         -> radial model
//   - focus/motion blur       -> Gaussian + horizontal box kernels
//   - screen brightness (s_b) -> linear intensity scaling
//   - indoor/outdoor ambient  -> additive veiling light + contrast loss
//   - sensor noise            -> additive Gaussian per channel
//
// The geometry stage (Warp, WarpMix) and the photometric stage
// (Photometric) are split so the rolling-shutter camera model can mix
// geometrically warped frames row-by-row before the shared photometric
// pass.
//
// Every capture is a pure function of the seed and the capture sequence.
// The channel's one sequential PRNG supplies the per-capture draws (the
// jitter, the coarse chroma field and one sensor-noise key); per-pixel
// sensor noise is keyed by (capture key, row), so both stages run over
// row bands in parallel and the pixels do not depend on GOMAXPROCS.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"rainbar/internal/colorspace"
	"rainbar/internal/faults"
	"rainbar/internal/geometry"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// Ambient identifies the lighting environment of a capture.
type Ambient int

// Ambient environments from the paper's evaluation (indoor default;
// outdoor notably degrades decoding, Fig. 10).
const (
	AmbientIndoor Ambient = iota + 1
	AmbientOutdoor
	AmbientDark
)

// String returns the environment name.
func (a Ambient) String() string {
	switch a {
	case AmbientIndoor:
		return "indoor"
	case AmbientOutdoor:
		return "outdoor"
	case AmbientDark:
		return "dark"
	default:
		return "unknown"
	}
}

// veil returns the additive ambient level (0..255) and the contrast factor
// the environment imposes on the captured screen.
func (a Ambient) veil() (level float64, contrast float64) {
	switch a {
	case AmbientOutdoor:
		return 46, 0.76 // strong veiling glare washes out the screen
	case AmbientDark:
		return 0, 1.0
	default: // indoor
		return 12, 0.95
	}
}

// ReferenceDistanceCM is the paper's default sender-receiver distance.
const ReferenceDistanceCM = 12.0

// Config describes one capture condition. The zero value is not useful;
// start from DefaultConfig and override fields.
type Config struct {
	// DistanceCM is the screen-camera distance (paper default 12 cm).
	// Larger distances shrink the projected screen.
	DistanceCM float64
	// ViewAngleDeg is the angle between screen normal and camera axis.
	ViewAngleDeg float64
	// ScreenBrightness is the sender's screen brightness in [0, 1].
	ScreenBrightness float64
	// Ambient is the lighting environment.
	Ambient Ambient
	// BlurSigma is the defocus blur standard deviation in pixels at the
	// reference distance; effective blur grows mildly with distance.
	BlurSigma float64
	// MotionBlurPx is the handshake motion-blur kernel length in pixels
	// (0 or 1 disables).
	MotionBlurPx int
	// NoiseStdDev is the per-pixel sensor noise standard deviation in
	// 8-bit counts.
	NoiseStdDev float64
	// ChromaNoiseStdDev is spatially correlated per-channel noise (8-bit
	// counts): demosaicing and compression artifacts vary smoothly over
	// patches of ChromaNoiseScalePx pixels, so unlike per-pixel noise they
	// survive the decoder's mean filter. 0 disables.
	ChromaNoiseStdDev float64
	// ChromaNoiseScalePx is the blotch size of the correlated noise
	// (default 8 px when ChromaNoiseStdDev > 0).
	ChromaNoiseScalePx int
	// LensK1, LensK2 are radial distortion coefficients (see geometry).
	LensK1, LensK2 float64
	// JitterPx randomly translates the projection per capture, modeling
	// hand shake between frames.
	JitterPx float64
	// Seed makes every capture sequence deterministic.
	Seed int64
}

// DefaultConfig returns the paper's default working condition: 12 cm,
// head-on, full brightness, indoors, mild blur/noise/lens distortion.
func DefaultConfig() Config {
	return Config{
		DistanceCM:       ReferenceDistanceCM,
		ViewAngleDeg:     0,
		ScreenBrightness: 1.0,
		Ambient:          AmbientIndoor,
		BlurSigma:        0.8,
		NoiseStdDev:      3.0,
		LensK1:           0.015,
		LensK2:           0.002,
		JitterPx:         0.6,
		Seed:             1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DistanceCM <= 0 {
		return fmt.Errorf("channel: distance %.2f cm must be positive", c.DistanceCM)
	}
	if c.ScreenBrightness < 0 || c.ScreenBrightness > 1 {
		return fmt.Errorf("channel: brightness %.2f out of [0, 1]", c.ScreenBrightness)
	}
	if c.ViewAngleDeg < -60 || c.ViewAngleDeg > 60 {
		return fmt.Errorf("channel: view angle %.1f° out of [-60, 60]", c.ViewAngleDeg)
	}
	return nil
}

// scale converts distance into projected size: the projection is sized so
// the screen nearly fills the capture at 8 cm — with margin for lens
// distortion and hand jitter at the corners — and shrinks in proportion
// (pinhole model).
func (c Config) scale() float64 {
	return 0.92 * 8.0 / c.DistanceCM
}

// lens is the radial distortion of a w x h capture, centered and
// normalized by half the diagonal.
func (c Config) lens(w, h int) geometry.RadialDistortion {
	return geometry.RadialDistortion{
		Center: geometry.Point{X: float64(w) / 2, Y: float64(h) / 2},
		Norm:   math.Hypot(float64(w), float64(h)) / 2,
		K1:     c.LensK1,
		K2:     c.LensK2,
	}
}

// effectiveBlurSigma grows defocus mildly as the subject leaves the focal
// plane at the reference distance.
func (c Config) effectiveBlurSigma() float64 {
	d := math.Abs(c.DistanceCM-ReferenceDistanceCM) / ReferenceDistanceCM
	return c.BlurSigma * (1 + 0.7*d)
}

// ForwardMap returns the exact screen-to-capture geometric mapping of this
// condition with zero jitter: perspective projection followed by the
// inverse of the lens model (the warp samples capture pixels by applying
// the lens model forward, so the true forward map inverts it by fixed-
// point iteration). Ground-truth localization experiments (Fig. 3/4)
// compare decoder estimates against this map.
func (c Config) ForwardMap(w, h int) (func(geometry.Point) geometry.Point, error) {
	hom, err := geometry.PerspectiveView(float64(w), float64(h), c.ViewAngleDeg, c.scale(), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("channel forward map: %w", err)
	}
	lens := c.lens(w, h)
	return func(p geometry.Point) geometry.Point {
		target := hom.Apply(p)
		// Solve lens.Apply(q) == target by fixed-point iteration
		// q <- center + (target - center) / f(|q - center|).
		q := target
		for i := 0; i < 20; i++ {
			mapped := lens.Apply(q)
			next := q.Add(target.Sub(mapped))
			if next.Dist(q) < 1e-6 {
				return next
			}
			q = next
		}
		return q
	}, nil
}

// Channel applies a capture condition to rendered frames. Each Channel has
// its own PRNG stream; captures mutate that stream, so a Channel is not
// safe for concurrent use (clone one per goroutine via New).
type Channel struct {
	cfg Config
	rng *rand.Rand

	// Faults is an optional injector chain run on every Capture after the
	// photometric stage (nil disables). Fault decisions for capture k are a
	// pure function of (chain seed, k) — see internal/faults — so they stay
	// reproducible even though the channel's own PRNG is sequential.
	Faults *faults.Chain

	// Recorder, when set, counts channel activity (captures, photometric
	// passes). Pixel output never depends on it.
	Recorder obs.Recorder

	// captures counts Capture calls, indexing the fault chain.
	captures int
}

// New creates a channel for the given condition.
func New(cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Determinism contract (RB-D2): locally seeded *rand.Rand — the noise
	// stream is a pure function of cfg.Seed, never of global or
	// time-seeded state.
	return &Channel{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// MustNew is New but panics on invalid configuration; for tests and
// literal configs.
func MustNew(cfg Config) *Channel {
	ch, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the channel's condition.
func (ch *Channel) Config() Config { return ch.cfg }

// Reset rewinds the channel to its just-constructed state: the private
// PRNG is reseeded from the configured seed and the capture counter that
// indexes the fault chain is zeroed. After Reset the next capture sequence
// is bit-identical to a freshly built channel's, which is what lets a
// long-lived transport session run back-to-back transfers reproducibly.
func (ch *Channel) Reset() {
	// Determinism contract (RB-D2): locally seeded *rand.Rand, same as New.
	ch.rng = rand.New(rand.NewSource(ch.cfg.Seed))
	ch.captures = 0
}

// RowMix names what one capture row shows under a rolling shutter: frame
// B, or — within an LCD transition — a blend of frames A and B with weight
// Alpha toward B. A and B index the frame list handed to WarpMix; B < 0
// means the screen shows nothing and the row stays black.
type RowMix struct {
	A, B  int
	Alpha float64
}

// Warp applies only the geometric stage (perspective + lens distortion +
// per-capture jitter) to a rendered frame, returning a capture-resolution
// image on a black background. The same jitter draw is used for the whole
// frame, as a real capture would.
func (ch *Channel) Warp(frame *raster.Image) (*raster.Image, error) {
	jx, jy := ch.jitter()
	return ch.warpMix([]*raster.Image{frame}, nil, jx, jy)
}

// WarpAll warps any number of frames with identical geometry (a single
// jitter draw), one output image per frame.
func (ch *Channel) WarpAll(frames []*raster.Image) ([]*raster.Image, error) {
	jx, jy := ch.jitter()
	out := make([]*raster.Image, len(frames))
	for i, f := range frames {
		w, err := ch.warpMix([]*raster.Image{f}, nil, jx, jy)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// WarpMix is the geometric stage of one rolling-shutter capture: a single
// jitter draw, then capture row y samples the frame (or the blend of two
// frames) that rows[y] names, under the one capture geometry. The frames
// must share their size, which is also the capture size; len(rows) must be
// the frame height.
func (ch *Channel) WarpMix(frames []*raster.Image, rows []RowMix) (*raster.Image, error) {
	jx, jy := ch.jitter()
	return ch.warpMix(frames, rows, jx, jy)
}

// jitter draws the per-capture hand-shake translation.
func (ch *Channel) jitter() (jx, jy float64) {
	jx = (ch.rng.Float64()*2 - 1) * ch.cfg.JitterPx
	jy = (ch.rng.Float64()*2 - 1) * ch.cfg.JitterPx
	return jx, jy
}

// warpMix is the one warp kernel. Each capture pixel is mapped once
// through lens∘inverse-homography and sampled only from the frame(s) its
// row shows; a blended row lerps the two samples toward B. Pixels that map
// off the screen, and rows that show no frame, stay black. nil rows means
// every row shows frames[0]. Only the pixels of each row's span
// (warpSpans) are mapped: the rest of the row is the dark surround under
// every jitter draw, so it stays black without being computed, and the
// cost follows the screen's footprint rather than the capture size.
func (ch *Channel) warpMix(frames []*raster.Image, rows []RowMix, jx, jy float64) (*raster.Image, error) {
	w, h := frames[0].W, frames[0].H
	for _, f := range frames {
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("channel warp: frame %dx%d in a %dx%d capture", f.W, f.H, w, h)
		}
	}
	if rows != nil && len(rows) != h {
		return nil, fmt.Errorf("channel warp: %d row sources for %d rows", len(rows), h)
	}
	hom, err := geometry.PerspectiveView(float64(w), float64(h), ch.cfg.ViewAngleDeg, ch.cfg.scale(), jx, jy)
	if err != nil {
		return nil, fmt.Errorf("channel warp: %w", err)
	}
	inv, err := hom.Inverse()
	if err != nil {
		return nil, fmt.Errorf("channel warp: %w", err)
	}
	lens := ch.cfg.lens(w, h)
	spans := ch.cfg.warpSpans(w, h)

	// Every output pixel is an independent pure function of the frames and
	// the (already drawn) jitter, so rows fan out across CPUs without
	// affecting the result.
	out := raster.New(w, h)
	raster.ParallelRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			lo, hi := int(spans[y].lo), int(spans[y].hi)
			if lo >= hi {
				continue // no jitter draw puts the screen on this row
			}
			rm := RowMix{Alpha: 1}
			if rows != nil {
				rm = rows[y]
			}
			if rm.B < 0 {
				continue // no frame on screen: the row stays black
			}
			fb := frames[rm.B]
			var fa *raster.Image
			if rm.A != rm.B && rm.Alpha < 1 {
				fa = frames[rm.A]
			}
			orow := out.Pix[y*w : (y+1)*w : (y+1)*w]
			for x := lo; x < hi; x++ {
				// Captured pixel -> ideal pinhole position (lens model) ->
				// screen position (inverse perspective).
				ideal := lens.Apply(geometry.Point{X: float64(x), Y: float64(y)})
				src := inv.Apply(ideal)
				if src.X < -1 || src.X > float64(w) || src.Y < -1 || src.Y > float64(h) {
					continue // stays black: the dark surround of the screen
				}
				if fa == nil {
					orow[x] = fb.Bilinear(src.X, src.Y)
					continue
				}
				orow[x] = lerpRGB(fa.Bilinear(src.X, src.Y), fb.Bilinear(src.X, src.Y), rm.Alpha)
			}
		}
	})
	return out, nil
}

// lerpRGB blends two pixels with weight t toward b, rounding per channel.
func lerpRGB(a, b colorspace.RGB, t float64) colorspace.RGB {
	lerp := func(x, y uint8) uint8 {
		return uint8(float64(x)*(1-t) + float64(y)*t + 0.5)
	}
	return colorspace.RGB{R: lerp(a.R, b.R), G: lerp(a.G, b.G), B: lerp(a.B, b.B)}
}

// Photometric applies the non-geometric stage in place of a new image:
// blur, screen brightness, ambient veiling light, and sensor noise.
//
// Per capture, the channel's sequential PRNG gives only serial draws: the
// coarse chroma field, then — only when sensor noise is on — one 64-bit
// capture key. Everything else runs in the Gaussian blur's own row bands
// (raster.GaussianBlurRows), one fork/join per pass: each row, right after
// it is blurred, gets the optional horizontal motion blur and then the
// noise/photometric response, in place. Row y draws its sensor noise (R,
// G, B per pixel, left to right) from a splitmix64 stream seeded by
// (capture key, y) alone, so no draw crosses a row and the output depends
// neither on the band layout nor on GOMAXPROCS.
func (ch *Channel) Photometric(img *raster.Image) *raster.Image {
	if obs.Enabled(ch.Recorder) {
		ch.Recorder.Inc(obs.MChannelPhotometric, 1)
	}
	chroma := ch.chromaField(img.W, img.H)
	sd := ch.cfg.NoiseStdDev
	var key uint64
	if sd > 0 {
		key = ch.rng.Uint64()
	}
	motion := ch.cfg.MotionBlurPx
	level, contrast := ch.cfg.Ambient.veil()
	bright := ch.cfg.ScreenBrightness
	w := img.W
	return img.GaussianBlurRows(ch.cfg.effectiveBlurSigma(), func() func(int, []colorspace.RGB) {
		var tmp []colorspace.RGB
		if motion > 1 {
			tmp = make([]colorspace.RGB, w)
		}
		var chromaRow []float64
		if chroma != nil {
			chromaRow = make([]float64, 3*w)
		}
		var src rowNoise
		// Determinism contract (RB-D2): a locally keyed *rand.Rand — row
		// y's noise is a pure function of (capture key, y).
		rng := rand.New(&src)
		return func(y int, row []colorspace.RGB) {
			if tmp != nil {
				copy(tmp, row)
				raster.MotionBlurRow(row, tmp, motion)
			}
			if chroma != nil {
				chroma.row(y, chromaRow)
			}
			src.state = faults.SplitMix64(key ^ uint64(y))
			for x, px := range row {
				var cr, cg, cb float64
				if chroma != nil {
					// Chroma artifacts scale with local luminance: camera
					// pipelines denoise shadows aggressively, so dark
					// (structural black) regions keep far less correlated
					// noise than lit ones.
					luma := (0.299*float64(px.R) + 0.587*float64(px.G) + 0.114*float64(px.B)) / 255
					gain := 0.15 + 0.85*luma
					c := chromaRow[3*x : 3*x+3 : 3*x+3]
					cr, cg, cb = c[0]*gain, c[1]*gain, c[2]*gain
				}
				var nr, ng, nb float64
				if sd > 0 {
					nr = rng.NormFloat64() * sd
					ng = rng.NormFloat64() * sd
					nb = rng.NormFloat64() * sd
				}
				row[x] = colorspace.RGB{
					R: photom(px.R, bright, contrast, level, nr+cr),
					G: photom(px.G, bright, contrast, level, ng+cg),
					B: photom(px.B, bright, contrast, level, nb+cb),
				}
			}
		}
	})
}

// rowNoise is the rand.Source behind one row's sensor noise: the standard
// splitmix64 generator, whose k-th output (from 1) is the mixer applied to
// state + k·γ, top bit cleared for Int63. Photometric reseeds it per row
// by setting state; rand.Rand keeps no buffered draws for NormFloat64, so
// the reseed takes effect at the next draw.
type rowNoise struct{ state uint64 }

func (s *rowNoise) Int63() int64 {
	x := faults.SplitMix64(s.state)
	s.state += 0x9E3779B97F4A7C15 // γ, the increment SplitMix64 adds
	return int64(x &^ (1 << 63))
}

func (s *rowNoise) Seed(seed int64) { s.state = uint64(seed) }

// chromaField holds the spatially correlated noise of one capture: coarse
// per-patch Gaussian draws, bilinearly upsampled one row at a time as the
// photometric row pass consumes them.
type chromaField struct {
	coarse [3][]float64
	cw     int
	scale  int
}

// chromaField makes every coarse draw of one capture, all before the
// sensor-noise capture key; nil when chroma noise is off.
func (ch *Channel) chromaField(w, h int) *chromaField {
	if ch.cfg.ChromaNoiseStdDev <= 0 {
		return nil
	}
	scale := ch.cfg.ChromaNoiseScalePx
	if scale < 2 {
		scale = 8
	}
	cw, chh := w/scale+2, h/scale+2
	f := &chromaField{cw: cw, scale: scale}
	for c := 0; c < 3; c++ {
		f.coarse[c] = make([]float64, cw*chh)
		for i := range f.coarse[c] {
			f.coarse[c][i] = ch.rng.NormFloat64() * ch.cfg.ChromaNoiseStdDev
		}
	}
	return f
}

// row writes the upsampled noise of capture row y into dst as interleaved
// R,G,B values, one triple per pixel.
func (f *chromaField) row(y int, dst []float64) {
	fy := float64(y) / float64(f.scale)
	y0 := int(fy)
	ty := fy - float64(y0)
	for x := 0; x < len(dst)/3; x++ {
		fx := float64(x) / float64(f.scale)
		x0 := int(fx)
		tx := fx - float64(x0)
		for c := 0; c < 3; c++ {
			v00 := f.coarse[c][y0*f.cw+x0]
			v10 := f.coarse[c][y0*f.cw+x0+1]
			v01 := f.coarse[c][(y0+1)*f.cw+x0]
			v11 := f.coarse[c][(y0+1)*f.cw+x0+1]
			top := v00*(1-tx) + v10*tx
			bot := v01*(1-tx) + v11*tx
			dst[3*x+c] = top*(1-ty) + bot*ty
		}
	}
}

func photom(v uint8, bright, contrast, ambient, noise float64) uint8 {
	f := float64(v)*bright*contrast + ambient + noise
	if f < 0 {
		return 0
	}
	if f > 255 {
		return 255
	}
	return uint8(f + 0.5)
}

// Capture runs the full pipeline on a single displayed frame: geometry
// then photometrics, then the optional fault-injection chain. This is what
// a global-shutter camera (or a rolling-shutter camera with f_d <= f_c/2
// and aligned timing) would produce. When the fault chain drops the
// capture, Capture returns faults.ErrFrameDropped.
func (ch *Channel) Capture(frame *raster.Image) (*raster.Image, error) {
	if obs.Enabled(ch.Recorder) {
		ch.Recorder.Inc(obs.MChannelCaptures, 1)
	}
	warped, err := ch.Warp(frame)
	if err != nil {
		return nil, err
	}
	out := ch.Photometric(warped)
	// Photometric always returns a fresh image (the blur output), so the
	// warped intermediate can go back to the pool.
	raster.Recycle(warped)
	idx := ch.captures
	ch.captures++
	if !ch.Faults.Apply(out, idx) {
		raster.Recycle(out)
		return nil, ErrFrameDropped
	}
	return out, nil
}

// ErrFrameDropped aliases faults.ErrFrameDropped so channel callers can
// test for injected whole-frame loss without importing faults.
var ErrFrameDropped = faults.ErrFrameDropped
