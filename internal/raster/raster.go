// Package raster provides the pure-Go image substrate RainBar runs on: a
// packed RGB frame buffer with block drawing for the encoder and the
// sampling/filtering primitives the decoder needs (3x3 mean filter,
// Gaussian blur, bilinear sampling, gradient sharpness for blur
// assessment). It replaces the OpenCV-style dependencies the original
// smartphone implementation would have used.
package raster

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"rainbar/internal/colorspace"
)

// ParallelRows splits the row range [0, h) into contiguous bands, one per
// CPU not already running bands, and runs fn on each band concurrently. fn
// must only read shared inputs and write rows inside its own band; because
// every output row is computed independently, results are identical for
// any worker count. With a single CPU (or a single row) it degenerates to
// a plain call, so the serial path pays no synchronization cost.
//
// The band count adapts to load so that concurrent callers do not
// oversubscribe the CPUs: a call counts every goroutine already inside
// ParallelRows (other callers and their helpers) against GOMAXPROCS, and
// with no CPU to spare it runs all rows inline. Bands are claimed, not
// assigned: the caller and its helper goroutines each take the next
// unclaimed band, and the caller waits only for bands a helper has already
// started, never for a helper that has not been scheduled yet. A serve
// daemon with one session per CPU thus runs each capture on its own
// session's CPU, as serial kernels would, while a lone transfer still
// spreads its bands over every idle CPU.
func ParallelRows(h int, fn func(y0, y1 int)) {
	procs := runtime.GOMAXPROCS(0)
	n := int(inBands.Add(1))
	defer inBands.Add(-1)
	workers := min(procs-n+1, h)
	if workers <= 1 {
		fn(0, h)
		return
	}
	var next, left atomic.Int32
	left.Store(int32(workers))
	finished := make(chan struct{})
	// run claims and runs one band; false once every band is claimed.
	run := func() bool {
		b := int(next.Add(1)) - 1
		if b >= workers {
			return false
		}
		fn(b*h/workers, (b+1)*h/workers)
		if left.Add(-1) == 0 {
			close(finished)
		}
		return true
	}
	for w := 1; w < workers; w++ {
		go func() {
			inBands.Add(1)
			defer inBands.Add(-1)
			for run() {
			}
		}()
	}
	for run() {
	}
	<-finished
}

// inBands counts the goroutines inside ParallelRows, callers and helpers
// alike; ParallelRows sizes its band count from it.
var inBands atomic.Int32

// RowTask is the typed-job counterpart of the ParallelRows callback: a
// value whose RunRows processes the contiguous row band [y0, y1). Hot-path
// code implements RowTask on a pooled struct instead of capturing state in
// a closure — a closure handed to ParallelRows escapes to the heap on
// every call, even on a single-CPU host where the band runs inline.
type RowTask interface {
	RunRows(y0, y1 int)
}

// bandJob is one row band of a RowTask, sent by value to the persistent
// band workers.
type bandJob struct {
	t      RowTask
	y0, y1 int
	wg     *sync.WaitGroup
}

var (
	bandOnce sync.Once
	bandJobs chan bandJob
	wgPool   = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

func startBandWorkers() {
	// One fewer worker than CPUs: the submitting goroutine always runs the
	// first band itself, so n CPUs stay busy with n-1 helpers. At least one
	// helper always starts, so queued bands drain (and wg.Wait returns)
	// even if GOMAXPROCS grows after the pool is up.
	n := runtime.GOMAXPROCS(0) - 1
	if n < 1 {
		n = 1
	}
	bandJobs = make(chan bandJob, 4*(n+1))
	for i := 0; i < n; i++ {
		go func() {
			for j := range bandJobs {
				j.t.RunRows(j.y0, j.y1)
				j.wg.Done()
			}
		}()
	}
}

// ParallelRowTasks splits [0, h) into contiguous bands, one per available
// CPU, and runs t.RunRows on each band concurrently via a persistent
// worker pool — no goroutine spawn and no allocation per call. The data
// contract is ParallelRows': RunRows must write only rows inside its own
// band and compute each row independently, so results are identical for
// any worker count. RunRows must not itself call ParallelRowTasks (the
// shared workers would deadlock). With a single CPU (or a single row) the
// whole range runs inline on the caller's goroutine.
func ParallelRowTasks(h int, t RowTask) {
	workers := min(runtime.GOMAXPROCS(0), h)
	if workers <= 1 {
		if h > 0 {
			t.RunRows(0, h)
		}
		return
	}
	bandOnce.Do(startBandWorkers)
	wg := wgPool.Get().(*sync.WaitGroup)
	for w := 1; w < workers; w++ {
		y0, y1 := w*h/workers, (w+1)*h/workers
		if y0 == y1 {
			continue
		}
		wg.Add(1)
		bandJobs <- bandJob{t: t, y0: y0, y1: y1, wg: wg}
	}
	// Band 0 runs inline, overlapping the helpers.
	t.RunRows(0, h/workers)
	wg.Wait()
	wgPool.Put(wg)
}

// floatPool recycles float scratch: the blur's ring rows (2·r+1 rows of
// 3·W floats per band, ~105 KB at 640 px wide and sigma 0.9) and the
// sharpness row sums, which every simulated capture and every decode
// would otherwise allocate afresh. boxPool recycles the *[]float64
// headers the pool stores, so a get/put round trip is allocation-free
// after warmup — the naive floatPool.Put(&b) would heap-allocate a fresh
// header every call.
var (
	floatPool sync.Pool
	boxPool   sync.Pool
)

// GetFloats returns a pooled scratch slice of length n with undefined
// contents; callers must overwrite every element they read. Pair with
// PutFloats when the scratch is no longer referenced.
func GetFloats(n int) []float64 {
	if box, ok := floatPool.Get().(*[]float64); ok {
		s := *box
		*box = nil
		boxPool.Put(box)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// PutFloats returns a slice obtained from GetFloats to the pool.
func PutFloats(b []float64) {
	box, ok := boxPool.Get().(*[]float64)
	if !ok {
		box = new([]float64)
	}
	*box = b
	floatPool.Put(box)
}

// imagePool recycles pixel buffers between simulated captures. Buffers
// enter the pool via Recycle and are reused by New / newUncleared when
// large enough.
var imagePool sync.Pool

// newUncleared returns a w x h image whose pixels are NOT initialized.
// Only producers that overwrite every pixel (blur passes, rotation) may
// use it; everything else goes through New.
func newUncleared(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid dimensions %dx%d", w, h))
	}
	n := w * h
	if v, ok := imagePool.Get().(*Image); ok && cap(v.Pix) >= n {
		v.W, v.H, v.Pix = w, h, v.Pix[:n]
		return v
	}
	return &Image{W: w, H: h, Pix: make([]colorspace.RGB, n)}
}

// Recycle returns img's pixel storage to the allocation pool; the caller
// must not touch img afterwards. Recycling is optional — images are
// ordinary garbage-collected values — but the capture pipeline recycles
// its per-frame intermediates to keep allocation churn off the hot path.
func Recycle(img *Image) {
	if img == nil || img.Pix == nil {
		return
	}
	imagePool.Put(img)
}

// Image is a W x H RGB frame buffer with rows stored contiguously.
// The zero value is an empty image; use New to allocate.
type Image struct {
	W, H int
	Pix  []colorspace.RGB // len == W*H, row-major
}

// New allocates a black W x H image. It panics on non-positive dimensions
// (a programming error, not a data error).
func New(w, h int) *Image {
	img := newUncleared(w, h)
	clear(img.Pix)
	return img
}

// Clone returns a deep copy of img.
func (img *Image) Clone() *Image {
	if img.W <= 0 || img.H <= 0 {
		return &Image{W: img.W, H: img.H, Pix: make([]colorspace.RGB, len(img.Pix))}
	}
	out := newUncleared(img.W, img.H)
	copy(out.Pix, img.Pix)
	return out
}

// In reports whether (x, y) lies inside the image.
func (img *Image) In(x, y int) bool {
	return x >= 0 && x < img.W && y >= 0 && y < img.H
}

// At returns the pixel at (x, y). Out-of-bounds reads return black, which
// models the dark surround of a captured screen.
func (img *Image) At(x, y int) colorspace.RGB {
	if !img.In(x, y) {
		return colorspace.RGBBlack
	}
	return img.Pix[y*img.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (img *Image) Set(x, y int, c colorspace.RGB) {
	if img.In(x, y) {
		img.Pix[y*img.W+x] = c
	}
}

// Fill paints the whole image with c.
func (img *Image) Fill(c colorspace.RGB) {
	for i := range img.Pix {
		img.Pix[i] = c
	}
}

// FillRect paints the axis-aligned rectangle [x0,x0+w) x [y0,y0+h),
// clipped to the image.
func (img *Image) FillRect(x0, y0, w, h int, c colorspace.RGB) {
	for y := max(y0, 0); y < min(y0+h, img.H); y++ {
		row := img.Pix[y*img.W : (y+1)*img.W]
		for x := max(x0, 0); x < min(x0+w, img.W); x++ {
			row[x] = c
		}
	}
}

// Rotate180 returns a copy rotated by half a turn — the orientation a
// captured screen has when one phone is held upside down.
func (img *Image) Rotate180() *Image {
	out := newUncleared(img.W, img.H)
	n := len(img.Pix)
	for i, p := range img.Pix {
		out.Pix[n-1-i] = p
	}
	return out
}

// Bilinear samples the image at a fractional position with bilinear
// interpolation. Samples outside the image blend toward black.
func (img *Image) Bilinear(x, y float64) colorspace.RGB {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)

	var c00, c10, c01, c11 colorspace.RGB
	if x0 >= 0 && y0 >= 0 && x0+1 < img.W && y0+1 < img.H {
		// Interior: both sample rows are in bounds, skip the four
		// per-corner bounds checks of the At path.
		i := y0*img.W + x0
		c00, c10 = img.Pix[i], img.Pix[i+1]
		c01, c11 = img.Pix[i+img.W], img.Pix[i+img.W+1]
	} else {
		c00 = img.At(x0, y0)
		c10 = img.At(x0+1, y0)
		c01 = img.At(x0, y0+1)
		c11 = img.At(x0+1, y0+1)
	}

	lerp2 := func(a, b, c, d uint8) uint8 {
		top := float64(a)*(1-fx) + float64(b)*fx
		bot := float64(c)*(1-fx) + float64(d)*fx
		v := top*(1-fy) + bot*fy
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return uint8(v + 0.5)
	}
	return colorspace.RGB{
		R: lerp2(c00.R, c10.R, c01.R, c11.R),
		G: lerp2(c00.G, c10.G, c01.G, c11.G),
		B: lerp2(c00.B, c10.B, c01.B, c11.B),
	}
}

// MeanFilterAt returns the 3x3 mean-filtered value at (x, y) — the block
// denoising step of §III-F. Border pixels average their in-bounds
// neighborhood only.
func (img *Image) MeanFilterAt(x, y int) colorspace.RGB {
	var r, g, b, n int
	if x >= 1 && y >= 1 && x < img.W-1 && y < img.H-1 {
		// Interior: all nine neighbors are in bounds.
		for dy := -1; dy <= 1; dy++ {
			row := img.Pix[(y+dy)*img.W+x-1 : (y+dy)*img.W+x+2]
			for _, p := range row {
				r += int(p.R)
				g += int(p.G)
				b += int(p.B)
			}
		}
		n = 9
	} else {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if !img.In(x+dx, y+dy) {
					continue
				}
				p := img.Pix[(y+dy)*img.W+(x+dx)]
				r += int(p.R)
				g += int(p.G)
				b += int(p.B)
				n++
			}
		}
		if n == 0 {
			return colorspace.RGBBlack
		}
	}
	return colorspace.RGB{
		R: uint8((r + n/2) / n),
		G: uint8((g + n/2) / n),
		B: uint8((b + n/2) / n),
	}
}

// GaussianBlur returns a blurred copy of img using a separable Gaussian
// kernel with the given standard deviation (in pixels). sigma <= 0 returns
// an unmodified clone.
//
// The rows are split into one band per CPU and each band runs the rowBlur
// kernel; every output row is computed with the same per-pixel operation
// order whichever band produces it, so the result does not depend on the
// worker count.
func (img *Image) GaussianBlur(sigma float64) *Image {
	return img.GaussianBlurRows(sigma, nil)
}

// GaussianBlurRows is GaussianBlur fused with a per-row pass over its
// output, in the same row bands and under the same fork/join: each band
// calls band once for its row finisher, then hands that finisher every
// output row y of the band, in order, right after the blur writes it (or,
// for sigma <= 0, right after the row is copied). The finisher may rewrite
// the row in place and must touch no other row, so — as with ParallelRows
// — the result does not depend on the band layout. A nil band is plain
// GaussianBlur.
func (img *Image) GaussianBlurRows(sigma float64, band func() func(y int, row []colorspace.RGB)) *Image {
	if sigma <= 0 && band == nil {
		return img.Clone()
	}
	out := newUncleared(img.W, img.H)
	var kernel []float64
	if sigma > 0 {
		kernel = gaussianKernel(sigma)
	}
	w := img.W
	ParallelRows(img.H, func(y0, y1 int) {
		var finish func(int, []colorspace.RGB)
		if band != nil {
			finish = band()
		}
		var b *rowBlur
		if kernel != nil {
			b = newRowBlur(img, kernel, y0)
		}
		for y := y0; y < y1; y++ {
			row := out.Pix[y*w : (y+1)*w : (y+1)*w]
			if b != nil {
				b.next(row)
			} else {
				copy(row, img.Pix[y*w:(y+1)*w])
			}
			if finish != nil {
				finish(y, row)
			}
		}
		if b != nil {
			b.close()
		}
	})
	return out
}

// rowBlur streams the Gaussian blur of an image one output row at a time,
// top to bottom, from a starting row. GaussianBlur runs one per row band.
//
// The kernel is separable. Each source row is blurred horizontally into a
// ring that holds only the 2·r+1 rows the next output row needs, and the
// output row is the vertical pass over those ring rows. The arithmetic per
// pixel is the textbook two-plane blur's, in the same order, so the output
// is bit-identical to it.
//
// Black is skipped, not computed. Each ring row records the column span
// outside of which its horizontal blur is exactly 0 (every tap there reads
// black), and each output row writes black directly outside the union of
// its source rows' spans: there every vertical tap is 0 too, and 0 divided
// by the weight sum is exactly 0.
type rowBlur struct {
	src    *Image
	kernel []float64
	ksum   float64 // the weight sum of a tap set that is all in bounds
	// ring holds 2·r+1 horizontally blurred source rows, each W
	// interleaved R,G,B float triples. Source row sy lives in slot
	// sy % len(lo) and is zero outside [lo[slot], hi[slot]).
	ring   []float64
	lo, hi []int
	loaded int // next source row to blur horizontally
	row    int // next output row
	// taps and weights are the current output row's in-bounds vertical
	// taps, in kernel order.
	taps    [][]float64
	weights []float64
}

// newRowBlur starts a blur whose first output row is y0.
func newRowBlur(src *Image, kernel []float64, y0 int) *rowBlur {
	// The sum is accumulated in kernel-index order, the order in which
	// the per-pixel loops add the weights of an edge pixel's in-bounds
	// taps, so dividing by it is bit-identical to summing per pixel.
	var ksum float64
	for _, kv := range kernel {
		ksum += kv
	}
	n := len(kernel)
	b := &rowBlur{
		src: src, kernel: kernel, ksum: ksum,
		ring:    GetFloats(n * 3 * src.W),
		lo:      make([]int, n),
		hi:      make([]int, n),
		loaded:  max(y0-n/2, 0),
		row:     y0,
		taps:    make([][]float64, 0, n),
		weights: make([]float64, 0, n),
	}
	clear(b.ring)
	return b
}

// close returns the ring scratch to its pool; the rowBlur must not be used
// afterwards.
func (b *rowBlur) close() {
	PutFloats(b.ring)
	b.ring = nil
}

// next writes the next output row of the blur into dst (len == src.W).
func (b *rowBlur) next(dst []colorspace.RGB) {
	src := b.src
	w, h := src.W, src.H
	y := b.row
	b.row++
	half := len(b.kernel) / 2
	for ; b.loaded <= min(y+half, h-1); b.loaded++ {
		b.blurSourceRow(b.loaded)
	}
	// Gather the taps inside the image and the union of their rows' spans.
	// On an interior row the weight sum is ksum bit for bit: the same
	// weights added in the same order.
	taps, weights := b.taps[:0], b.weights[:0]
	var wsum float64
	lo, hi := w, 0
	for k, kv := range b.kernel {
		sy := y + k - half
		if sy < 0 || sy >= h {
			continue
		}
		s := sy % len(b.lo)
		taps = append(taps, b.slot(s))
		weights = append(weights, kv)
		wsum += kv
		if b.lo[s] < b.hi[s] {
			lo, hi = min(lo, b.lo[s]), max(hi, b.hi[s])
		}
	}
	b.taps, b.weights = taps, weights
	if lo >= hi {
		clear(dst)
		return
	}
	clear(dst[:lo])
	clear(dst[hi:])
	for x := lo; x < hi; x++ {
		var r, g, bl float64
		for i, row := range taps {
			kv := weights[i]
			p := row[3*x : 3*x+3 : 3*x+3]
			r += kv * p[0]
			g += kv * p[1]
			bl += kv * p[2]
		}
		dst[x] = colorspace.RGB{R: clampRound(r / wsum), G: clampRound(g / wsum), B: clampRound(bl / wsum)}
	}
}

// slot returns ring slot s: one row of interleaved R,G,B floats.
func (b *rowBlur) slot(s int) []float64 {
	n := 3 * b.src.W
	return b.ring[s*n : (s+1)*n : (s+1)*n]
}

// blurSourceRow runs the horizontal pass of source row sy into its ring
// slot, over the columns the row's lit pixels reach; the rest of the slot
// is zero.
func (b *rowBlur) blurSourceRow(sy int) {
	w, kernel := b.src.W, b.kernel
	half := len(kernel) / 2
	row := b.src.Pix[sy*w : (sy+1)*w : (sy+1)*w]
	s := sy % len(b.lo)
	slot := b.slot(s)
	clear(slot[3*b.lo[s] : 3*b.hi[s]]) // the previous row's span
	first := -1
	for x, p := range row {
		if p != colorspace.RGBBlack {
			first = x
			break
		}
	}
	lo, hi := 0, 0
	if first >= 0 {
		last := w - 1
		for row[last] == colorspace.RGBBlack {
			last--
		}
		lo, hi = max(first-half, 0), min(last+half+1, w)
	}
	b.lo[s], b.hi[s] = lo, hi
	for x := lo; x < hi; x++ {
		// Taps [kLo, kHi) fall inside the row. An edge column divides by
		// the weights of those taps alone, summed in kernel order.
		kLo, kHi := max(half-x, 0), min(len(kernel), w-x+half)
		ws := b.ksum
		if kLo > 0 || kHi < len(kernel) {
			ws = 0
			for _, kv := range kernel[kLo:kHi] {
				ws += kv
			}
		}
		var r, g, bl float64
		for k, p := range row[x+kLo-half : x+kHi-half] {
			kv := kernel[kLo+k]
			r += kv * float64(p.R)
			g += kv * float64(p.G)
			bl += kv * float64(p.B)
		}
		o := slot[3*x : 3*x+3 : 3*x+3]
		o[0], o[1], o[2] = r/ws, g/ws, bl/ws
	}
}

// MotionBlurHorizontal returns a copy blurred by a horizontal box kernel of
// the given length (in pixels), modeling handshake during exposure.
// Lengths <= 1 return an unmodified clone.
func (img *Image) MotionBlurHorizontal(length int) *Image {
	if length <= 1 {
		return img.Clone()
	}
	out := newUncleared(img.W, img.H)
	w := img.W
	ParallelRows(img.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			MotionBlurRow(out.Pix[y*w:(y+1)*w:(y+1)*w], img.Pix[y*w:(y+1)*w:(y+1)*w], length)
		}
	})
	return out
}

// MotionBlurRow writes src blurred by a horizontal box kernel of the given
// length (> 1) into dst; dst and src must not overlap. Sliding-window box
// sums make each row O(W) instead of O(W·length); integer arithmetic keeps
// the result identical to the naive kernel.
func MotionBlurRow(dst, src []colorspace.RGB, length int) {
	half := length / 2
	w := len(src)
	var r, g, b, n int
	for sx := 0; sx <= half && sx < w; sx++ {
		p := src[sx]
		r += int(p.R)
		g += int(p.G)
		b += int(p.B)
		n++
	}
	for x := 0; x < w; x++ {
		dst[x] = colorspace.RGB{
			R: uint8(r / n), G: uint8(g / n), B: uint8(b / n),
		}
		if sx := x - half; sx >= 0 {
			p := src[sx]
			r -= int(p.R)
			g -= int(p.G)
			b -= int(p.B)
			n--
		}
		if sx := x + half + 1; sx < w {
			p := src[sx]
			r += int(p.R)
			g += int(p.G)
			b += int(p.B)
			n++
		}
	}
}

func gaussianKernel(sigma float64) []float64 {
	radius := int(3*sigma + 0.5)
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var sum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	return kernel
}

func clampRound(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Sharpness returns a scalar focus metric: the mean squared horizontal and
// vertical luminance gradient. COBRA's blur assessment (§III-D) selects,
// among captures of the same frame, the one with the highest sharpness.
//
// Rows are scored in parallel; each row accumulates its own partial sum
// and the partials are reduced in row order, so the (fixed) floating-point
// association is independent of the worker count. The task struct and all
// scratch are pooled: steady-state calls do not allocate.
func (img *Image) Sharpness() float64 {
	if img.W < 2 || img.H < 2 {
		return 0
	}
	t, _ := sharpPool.Get().(*sharpTask)
	if t == nil {
		t = new(sharpTask)
	}
	t.img = img
	t.rowSums = GetFloats(img.H - 1)
	ParallelRowTasks(img.H-1, t)
	var sum float64
	for _, s := range t.rowSums {
		sum += s
	}
	PutFloats(t.rowSums)
	t.img, t.rowSums = nil, nil
	sharpPool.Put(t)
	return sum / float64((img.W-1)*(img.H-1))
}

var sharpPool sync.Pool

// sharpTask scores rows [y0, y1) of img into rowSums. Each band keeps two
// pooled luma rows and rolls them downward, so every pixel's luma is
// evaluated twice per call (once as the "current" row, once as the row
// below) instead of three times in the naive form — with the identical
// per-row accumulation order, so the result is bit-equal to the original
// serial loop.
type sharpTask struct {
	img     *Image
	rowSums []float64
}

func (t *sharpTask) RunRows(y0, y1 int) {
	img := t.img
	w := img.W
	scratch := GetFloats(2 * w)
	cur, next := scratch[:w], scratch[w:]
	lumaRow(img.Pix[y0*w:(y0+1)*w:(y0+1)*w], cur)
	for y := y0; y < y1; y++ {
		lumaRow(img.Pix[(y+1)*w:(y+2)*w:(y+2)*w], next)
		var sum float64
		l := cur[0]
		for x := 0; x < w-1; x++ {
			lr := cur[x+1]
			gx := lr - l
			gy := next[x] - l
			sum += gx*gx + gy*gy
			l = lr
		}
		t.rowSums[y] = sum
		cur, next = next, cur
	}
	PutFloats(scratch)
}

// lumaRow writes luma(row[x]) into dst[x] using the per-channel tables.
func lumaRow(row []colorspace.RGB, dst []float64) {
	for x, p := range row {
		dst[x] = (lumaR[p.R] + lumaG[p.G]) + lumaB[p.B]
	}
}

// lumaR/lumaG/lumaB cache the per-channel Rec. 601 terms. The sum
// (lumaR[r]+lumaG[g])+lumaB[b] reproduces the left-associated expression
// 0.299*r + 0.587*g + 0.114*b bit-for-bit.
var lumaR, lumaG, lumaB [256]float64

func init() {
	for k := 0; k < 256; k++ {
		lumaR[k] = 0.299 * float64(k)
		lumaG[k] = 0.587 * float64(k)
		lumaB[k] = 0.114 * float64(k)
	}
}

// luma is the Rec. 601 luminance of a pixel, the gradient basis for
// Sharpness.
func luma(p colorspace.RGB) float64 {
	return (lumaR[p.R] + lumaG[p.G]) + lumaB[p.B]
}

// ToStdImage converts to an image.RGBA from the standard library.
func (img *Image) ToStdImage() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, img.W, img.H))
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			p := img.Pix[y*img.W+x]
			i := out.PixOffset(x, y)
			out.Pix[i+0] = p.R
			out.Pix[i+1] = p.G
			out.Pix[i+2] = p.B
			out.Pix[i+3] = 0xFF
		}
	}
	return out
}

// FromStdImage converts any standard-library image to an Image.
func FromStdImage(src image.Image) *Image {
	b := src.Bounds()
	out := New(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bb, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Pix[y*out.W+x] = colorspace.RGB{
				R: uint8(r >> 8), G: uint8(g >> 8), B: uint8(bb >> 8),
			}
		}
	}
	return out
}

// EncodePNG writes the image as PNG.
func (img *Image) EncodePNG(w io.Writer) error {
	return png.Encode(w, img.ToStdImage())
}

// WritePNGFile writes the image to a PNG file at path.
func (img *Image) WritePNGFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write png: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write png: %w", cerr)
		}
	}()
	return img.EncodePNG(f)
}

// ReadPNGFile loads a PNG file into an Image.
func ReadPNGFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("read png: %w", err)
	}
	defer f.Close()
	src, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("read png: %w", err)
	}
	return FromStdImage(src), nil
}
