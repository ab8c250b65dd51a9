// Package camera models the receiver's CMOS camera. The essential physics
// is the rolling shutter (paper §III-B, Fig. 6): a capture is not a
// snapshot but a top-to-bottom scan over a readout interval, so when the
// display rate exceeds half the capture rate a captured image mixes rows
// from two consecutive displayed frames. RainBar's tracking bars exist to
// undo exactly this mixing; this package produces it faithfully.
package camera

import (
	"fmt"
	"math/rand"
	"time"

	"rainbar/internal/channel"
	"rainbar/internal/faults"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// Camera describes a rolling-shutter capture device.
type Camera struct {
	// RateFPS is the capture rate f_c (paper default 30 fps).
	RateFPS float64
	// ReadoutFraction is the fraction of the capture period spent
	// scanning rows top to bottom; CMOS phone sensors are close to 1.
	ReadoutFraction float64
	// Phase delays the first capture start relative to the display epoch,
	// modeling the arbitrary alignment of two unsynchronized devices.
	Phase time.Duration
	// TimingJitter is the standard deviation of per-capture start-time
	// noise (OS scheduling, exposure adjustment). It prevents the
	// unrealistic resonances a mathematically exact f_c/f_d ratio
	// produces. Zero disables.
	TimingJitter time.Duration
	// Seed drives the timing-jitter draws.
	Seed int64
	// Faults is an optional injector chain run on every capture after the
	// photometric pass (nil disables). Capture k's faults are a pure
	// function of (chain seed, k), where k numbers capture slots from the
	// film start — dropped captures still consume their slot, so the fault
	// pattern is independent of earlier faults.
	Faults *faults.Chain
	// Recorder, when set, counts filmed captures, rolling-shutter mixed
	// captures, and fault-dropped captures. Capture content and timing
	// never depend on it.
	Recorder obs.Recorder
}

// Default returns the paper's receiver: 30 fps with near-full readout.
func Default() Camera {
	return Camera{RateFPS: 30, ReadoutFraction: 0.9}
}

// Validate reports configuration errors.
func (c Camera) Validate() error {
	if c.RateFPS <= 0 {
		return fmt.Errorf("camera: capture rate %.2f fps must be positive", c.RateFPS)
	}
	if c.ReadoutFraction <= 0 || c.ReadoutFraction > 1 {
		return fmt.Errorf("camera: readout fraction %.2f out of (0, 1]", c.ReadoutFraction)
	}
	return nil
}

// Period returns the time between capture starts.
func (c Camera) Period() time.Duration {
	return time.Duration(float64(time.Second) / c.RateFPS)
}

// Capture is one captured image plus its provenance: which displayed
// frames contributed rows (in top-to-bottom order) and at which capture
// row each source frame starts.
type Capture struct {
	// Image is the captured pixel data after the full optical pipeline.
	Image *raster.Image
	// Start is the capture's scan start time.
	Start time.Duration
	// SourceFrames lists the display frame indices contributing rows,
	// top to bottom. A clean capture has exactly one entry.
	SourceFrames []int
	// RowBoundaries[i] is the first capture row drawn from
	// SourceFrames[i+1]; len == len(SourceFrames)-1.
	RowBoundaries []int
}

// Mixed reports whether the capture contains rows from more than one
// displayed frame.
func (cap *Capture) Mixed() bool { return len(cap.SourceFrames) > 1 }

// Film captures the entire display sequence through the given channel,
// returning every capture whose scan overlaps the display interval. The
// channel's photometric pass runs after row mixing, as in a real sensor
// where optics and noise act on the composite exposure.
func (c Camera) Film(d *screen.Display, ch *channel.Channel) ([]Capture, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var out []Capture
	readout := time.Duration(float64(c.Period()) * c.ReadoutFraction)
	// Determinism contract (RB-D2): locally seeded *rand.Rand — shutter
	// jitter is a pure function of c.Seed, so a Film run is bit-identical
	// for identical configurations.
	rng := rand.New(rand.NewSource(c.Seed))
	maxJitter := (c.Period() - readout) / 2 // captures must not overlap
	frames := make([]*raster.Image, d.NumFrames())
	for i := range frames {
		frames[i] = d.Frame(i)
	}
	for k := 0; ; k++ {
		start := c.Phase + time.Duration(k)*c.Period()
		if c.TimingJitter > 0 && maxJitter > 0 {
			j := time.Duration(rng.NormFloat64() * float64(c.TimingJitter))
			if j > maxJitter {
				j = maxJitter
			}
			if j < -maxJitter {
				j = -maxJitter
			}
			start += j
		}
		if start >= d.End() {
			break
		}
		if start+readout <= 0 {
			continue
		}
		cap, err := c.captureOne(d, frames, ch, start, readout)
		if err != nil {
			return nil, err
		}
		if cap == nil {
			continue
		}
		if !c.Faults.Apply(cap.Image, k) {
			raster.Recycle(cap.Image)
			if obs.Enabled(c.Recorder) {
				c.Recorder.Inc(obs.MCameraDropped, 1)
			}
			continue // whole-frame loss: the decoder never sees it
		}
		if obs.Enabled(c.Recorder) {
			c.Recorder.Inc(obs.MCameraCaptures, 1)
			if cap.Mixed() {
				c.Recorder.Inc(obs.MCameraMixed, 1)
			}
		}
		out = append(out, *cap)
	}
	return out, nil
}

// captureOne scans one image starting at start. Returns nil if no display
// frame is visible during the scan.
func (c Camera) captureOne(d *screen.Display, frames []*raster.Image, ch *channel.Channel, start, readout time.Duration) (*Capture, error) {
	h := frames[0].H

	// Determine the source display frame(s) for every captured row. The
	// "dominant" frame (the one contributing more than half the blend)
	// defines provenance; fully blended rows still carry pixels of both.
	rows := make([]channel.RowMix, h)
	var distinct []int
	var boundaries []int
	prev := -2 // sentinel distinct from "no frame" (-1)
	for y := 0; y < h; y++ {
		t := start + time.Duration(float64(readout)*float64(y)/float64(h))
		a, b, alpha := d.BlendAt(t)
		rows[y] = channel.RowMix{A: a, B: b, Alpha: alpha}
		dom := a
		switch {
		case b < 0:
			dom = -1
		case alpha >= 0.5:
			dom = b
		}
		if dom != prev {
			if dom >= 0 && prev >= 0 {
				boundaries = append(boundaries, y)
			}
			if dom >= 0 {
				distinct = append(distinct, dom)
			}
			prev = dom
		}
	}
	if len(distinct) == 0 {
		return nil, nil // no row shows a frame
	}

	// One warp under the shared capture geometry samples each row from the
	// frame(s) it shows; rows with no visible frame (before the first or
	// after the last display frame) stay black.
	mixed, err := ch.WarpMix(frames, rows)
	if err != nil {
		return nil, fmt.Errorf("camera capture at %v: %w", start, err)
	}
	img := ch.Photometric(mixed)
	// Photometric returns a fresh image, so the composite goes back to the
	// pool.
	raster.Recycle(mixed)
	return &Capture{
		Image:         img,
		Start:         start,
		SourceFrames:  distinct,
		RowBoundaries: boundaries,
	}, nil
}
