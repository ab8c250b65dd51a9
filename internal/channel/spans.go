package channel

import (
	"math"
	"sync"
	"sync/atomic"

	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// rowSpan is the half-open column range [lo, hi) of one capture row that
// the warp maps; every pixel outside it stays black. lo == hi is an empty
// row.
type rowSpan struct{ lo, hi int32 }

// spanKey is everything the warp's lit region depends on apart from the
// jitter draw itself.
type spanKey struct {
	w, h                           int
	angle, scale, k1, k2, jitterPx float64
}

// spanMemo caches warpSpans per configuration: the spans are a pure
// function of the key, so concurrent builders of one key store the same
// value and either may win, and no caller can observe another's entry.
// A serve daemon takes channel configs from its clients, so the memo
// stops growing at maxSpanKeys entries; a key past that builds its
// spans on every call.
var (
	spanMemo sync.Map // spanKey -> []rowSpan
	spanKeys atomic.Int32
)

// maxSpanKeys bounds the memo to a few MB even at 1080-row captures;
// every experiment table together (`rainbar-bench -exp all`) uses 26 keys.
const maxSpanKeys = 1024

// spanSlack widens the jitter reach in the ideal image plane to absorb
// the rounding of the homography solve and inverse (around 1e-7 px), so
// a pixel the kernel lights at the very edge of the screen is never
// outside its span.
const spanSlack = 0.01

// warpSpans returns the columns of each capture row that can map onto the
// screen under any jitter draw of this configuration (whole rows where
// that cannot be bounded).
//
// The kernel lights capture pixel p under jitter J iff the inverse
// homography takes a = lens(p) into the closed box [-1,w]x[-1,h]. The
// jittered homography is the zero-jitter one, H0, followed by a
// translation by J, so that holds iff a-J lies in R = H0(box). When H0's
// denominator has one sign over the box, R is the convex quadrilateral on
// the four mapped box corners, and |J| <= √2·JitterPx puts a within that
// distance of R. A pixel whose lens image is farther from R than that
// (plus spanSlack) stays black under every draw, and each row's span is
// the range from its first to its last pixel that is not that far. The
// scan maps each pixel through the kernel's own lens, and nothing is
// assumed about the lens: negative coefficients need no special case. If the box crosses
// H0's horizon, R is not that quadrilateral and every row is mapped.
func (c Config) warpSpans(w, h int) []rowSpan {
	k := spanKey{w, h, c.ViewAngleDeg, c.scale(), c.LensK1, c.LensK2, c.JitterPx}
	if math.IsNaN(k.angle + k.scale + k.k1 + k.k2 + k.jitterPx) {
		return fullRows(w, h) // a NaN key never matches, so it would fill the memo
	}
	if v, ok := spanMemo.Load(k); ok {
		return v.([]rowSpan)
	}
	spans := c.buildSpans(w, h)
	if spanKeys.Load() >= maxSpanKeys {
		return spans
	}
	v, loaded := spanMemo.LoadOrStore(k, spans)
	if !loaded {
		spanKeys.Add(1)
	}
	return v.([]rowSpan)
}

// buildSpans scans every capture pixel once for warpSpans.
func (c Config) buildSpans(w, h int) []rowSpan {
	hom, err := geometry.PerspectiveView(float64(w), float64(h), c.ViewAngleDeg, c.scale(), 0, 0)
	if err != nil {
		return fullRows(w, h) // the kernel reports the error
	}
	fw, fh := float64(w), float64(h)
	var quad [4]geometry.Point
	var sign [4]bool
	for i, s := range [4]geometry.Point{{X: -1, Y: -1}, {X: fw, Y: -1}, {X: fw, Y: fh}, {X: -1, Y: fh}} {
		quad[i] = hom.Apply(s)
		sign[i] = hom[6]*s.X+hom[7]*s.Y+hom[8] > 0
	}
	if sign[1] != sign[0] || sign[2] != sign[0] || sign[3] != sign[0] {
		return fullRows(w, h)
	}
	reach := math.Sqrt2*math.Abs(c.JitterPx) + spanSlack
	// Lens images outside R's bounding box grown by reach are rejected
	// before the exact distance test.
	bx0, by0 := math.Inf(1), math.Inf(1)
	bx1, by1 := math.Inf(-1), math.Inf(-1)
	for _, q := range quad {
		bx0, by0 = min(bx0, q.X), min(by0, q.Y)
		bx1, by1 = max(bx1, q.X), max(by1, q.Y)
	}
	bx0, by0, bx1, by1 = bx0-reach, by0-reach, bx1+reach, by1+reach

	lens := c.lens(w, h)
	spans := make([]rowSpan, h)
	raster.ParallelRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			lo, hi := w, 0
			for x := 0; x < w; x++ {
				a := lens.Apply(geometry.Point{X: float64(x), Y: float64(y)})
				if a.X < bx0 || a.X > bx1 || a.Y < by0 || a.Y > by1 || quadDist(a, &quad) > reach {
					continue
				}
				lo, hi = min(lo, x), x+1
			}
			if lo < hi {
				spans[y] = rowSpan{int32(lo), int32(hi)}
			}
		}
	})
	return spans
}

// fullRows spans every column of every row.
func fullRows(w, h int) []rowSpan {
	spans := make([]rowSpan, h)
	for y := range spans {
		spans[y] = rowSpan{0, int32(w)}
	}
	return spans
}

// quadDist returns the distance from p to the convex quadrilateral q
// (vertices in order, either orientation): 0 inside, else the distance to
// the nearest edge.
func quadDist(p geometry.Point, q *[4]geometry.Point) float64 {
	var pos, neg bool
	for i := range q {
		e, v := q[(i+1)%4].Sub(q[i]), p.Sub(q[i])
		if cr := e.X*v.Y - e.Y*v.X; cr > 0 {
			pos = true
		} else if cr < 0 {
			neg = true
		}
	}
	if !(pos && neg) {
		return 0
	}
	d := math.Inf(1)
	for i := range q {
		e, v := q[(i+1)%4].Sub(q[i]), p.Sub(q[i])
		t := 0.0
		if l2 := e.X*e.X + e.Y*e.Y; l2 > 0 {
			t = min(max((v.X*e.X+v.Y*e.Y)/l2, 0), 1)
		}
		d = min(d, p.Dist(q[i].Add(e.Scale(t))))
	}
	return d
}
