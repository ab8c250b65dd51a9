package raster

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"testing/quick"

	"rainbar/internal/colorspace"
)

func TestNewPanicsOnInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

func TestAtSetAndBounds(t *testing.T) {
	img := New(4, 3)
	red := colorspace.RGBRed
	img.Set(2, 1, red)
	if got := img.At(2, 1); got != red {
		t.Errorf("At(2,1) = %v, want red", got)
	}
	// Out-of-bounds reads are black, writes are no-ops.
	if got := img.At(-1, 0); got != colorspace.RGBBlack {
		t.Errorf("At(-1,0) = %v, want black", got)
	}
	if got := img.At(4, 0); got != colorspace.RGBBlack {
		t.Errorf("At(4,0) = %v, want black", got)
	}
	img.Set(100, 100, red) // must not panic
}

func TestCloneIsDeep(t *testing.T) {
	img := New(2, 2)
	img.Set(0, 0, colorspace.RGBGreen)
	cl := img.Clone()
	cl.Set(0, 0, colorspace.RGBBlue)
	if img.At(0, 0) != colorspace.RGBGreen {
		t.Fatal("Clone shares pixel storage with original")
	}
}

func TestFillRectClipping(t *testing.T) {
	img := New(4, 4)
	img.FillRect(-2, -2, 4, 4, colorspace.RGBWhite)
	if img.At(0, 0) != colorspace.RGBWhite || img.At(1, 1) != colorspace.RGBWhite {
		t.Error("clipped fill missed in-bounds corner")
	}
	if img.At(2, 2) != colorspace.RGBBlack {
		t.Error("fill exceeded its rectangle")
	}
}

func TestBilinearAtIntegerCoordinates(t *testing.T) {
	img := New(3, 3)
	img.Set(1, 1, colorspace.RGB{R: 100, G: 150, B: 200})
	if got := img.Bilinear(1, 1); got != (colorspace.RGB{R: 100, G: 150, B: 200}) {
		t.Errorf("Bilinear(1,1) = %v", got)
	}
}

func TestBilinearInterpolatesMidpoint(t *testing.T) {
	img := New(2, 1)
	img.Set(0, 0, colorspace.RGB{R: 0, G: 0, B: 0})
	img.Set(1, 0, colorspace.RGB{R: 200, G: 100, B: 50})
	got := img.Bilinear(0.5, 0)
	want := colorspace.RGB{R: 100, G: 50, B: 25}
	if got != want {
		t.Errorf("Bilinear(0.5,0) = %v, want %v", got, want)
	}
}

func TestBilinearNegativeCoordinates(t *testing.T) {
	// Regression guard for the int-truncation-toward-zero bug: floor(-0.5)
	// must be -1, so a sample at -0.5 blends halfway to black.
	img := New(2, 2)
	img.Fill(colorspace.RGB{R: 200, G: 200, B: 200})
	got := img.Bilinear(-0.5, 0)
	if got.R != 100 {
		t.Errorf("Bilinear(-0.5,0).R = %d, want 100", got.R)
	}
}

func TestMeanFilterUniform(t *testing.T) {
	img := New(5, 5)
	img.Fill(colorspace.RGB{R: 60, G: 70, B: 80})
	if got := img.MeanFilterAt(2, 2); got != (colorspace.RGB{R: 60, G: 70, B: 80}) {
		t.Errorf("mean of uniform image = %v", got)
	}
	// Corner: only 4 neighbors in bounds, still the same mean.
	if got := img.MeanFilterAt(0, 0); got != (colorspace.RGB{R: 60, G: 70, B: 80}) {
		t.Errorf("corner mean = %v", got)
	}
}

func TestMeanFilterSuppressesSaltNoise(t *testing.T) {
	img := New(3, 3)
	img.Fill(colorspace.RGB{R: 0, G: 0, B: 0})
	img.Set(1, 1, colorspace.RGB{R: 255, G: 255, B: 255}) // single hot pixel
	got := img.MeanFilterAt(1, 1)
	if got.R != 255/9+1 && got.R != 255/9 { // ~28, rounding either way
		t.Errorf("mean filter at hot pixel = %v, want ~28", got)
	}
}

func TestGaussianBlurPreservesUniform(t *testing.T) {
	img := New(8, 8)
	img.Fill(colorspace.RGB{R: 90, G: 90, B: 90})
	out := img.GaussianBlur(1.5)
	for i, p := range out.Pix {
		if p.R < 89 || p.R > 91 {
			t.Fatalf("pixel %d = %v after blur of uniform image", i, p)
		}
	}
}

func TestGaussianBlurZeroSigmaIsIdentity(t *testing.T) {
	img := New(4, 4)
	img.Set(1, 2, colorspace.RGBRed)
	out := img.GaussianBlur(0)
	if !bytes.Equal(flatten(img), flatten(out)) {
		t.Fatal("sigma=0 blur changed pixels")
	}
}

func TestGaussianBlurSpreadsEdge(t *testing.T) {
	img := New(20, 1)
	for x := 10; x < 20; x++ {
		img.Set(x, 0, colorspace.RGBWhite)
	}
	out := img.GaussianBlur(2)
	// The step at x=10 must become a monotone ramp.
	prev := -1
	for x := 5; x < 15; x++ {
		v := int(out.At(x, 0).R)
		if v < prev {
			t.Fatalf("blurred edge not monotone at x=%d: %d < %d", x, v, prev)
		}
		prev = v
	}
	if out.At(9, 0).R == 0 || out.At(10, 0).R == 255 {
		t.Error("blur did not spread the edge")
	}
}

// gaussianBlurRef is the original two-plane separable blur: a horizontal
// pass over every pixel into three full float planes, then a vertical pass
// over them. GaussianBlur must stay byte-equal to it.
func gaussianBlurRef(img *Image, sigma float64) *Image {
	if sigma <= 0 {
		return img.Clone()
	}
	kernel := gaussianKernel(sigma)
	half := len(kernel) / 2
	var ksum float64
	for _, kv := range kernel {
		ksum += kv
	}
	w, h := img.W, img.H
	n := w * h
	tmpR, tmpG, tmpB := make([]float64, n), make([]float64, n), make([]float64, n)
	lo := min(half, w)
	hi := max(w-half, lo)
	for y := 0; y < h; y++ {
		base := y * w
		row := img.Pix[base : base+w]
		edge := func(x int) {
			var r, g, b, wsum float64
			for k, kv := range kernel {
				sx := x + k - half
				if sx < 0 || sx >= w {
					continue
				}
				p := row[sx]
				r += kv * float64(p.R)
				g += kv * float64(p.G)
				b += kv * float64(p.B)
				wsum += kv
			}
			tmpR[base+x], tmpG[base+x], tmpB[base+x] = r/wsum, g/wsum, b/wsum
		}
		for x := 0; x < lo; x++ {
			edge(x)
		}
		for x := hi; x < w; x++ {
			edge(x)
		}
		for x := lo; x < hi; x++ {
			var r, g, b float64
			for k, kv := range kernel {
				p := row[x+k-half]
				r += kv * float64(p.R)
				g += kv * float64(p.G)
				b += kv * float64(p.B)
			}
			tmpR[base+x], tmpG[base+x], tmpB[base+x] = r/ksum, g/ksum, b/ksum
		}
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var r, g, b, wsum float64
			interior := y >= half && y < h-half
			for k, kv := range kernel {
				sy := y + k - half
				if sy < 0 || sy >= h {
					continue
				}
				i := sy*w + x
				r += kv * tmpR[i]
				g += kv * tmpG[i]
				b += kv * tmpB[i]
				wsum += kv
			}
			if interior {
				wsum = ksum
			}
			out.Pix[y*w+x] = colorspace.RGB{R: clampRound(r / wsum), G: clampRound(g / wsum), B: clampRound(b / wsum)}
		}
	}
	return out
}

// blurCases are images the blur kernel must reproduce bit for bit: lit
// content inside black borders, content touching each edge, all black,
// 1x1, and sizes smaller than the kernel in either direction.
func blurCases() map[string]*Image {
	rng := rand.New(rand.NewSource(3))
	random := func(img *Image, x0, y0, x1, y1 int) *Image {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				img.Pix[y*img.W+x] = colorspace.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
			}
		}
		return img
	}
	cases := map[string]*Image{
		"bordered":   random(New(97, 61), 17, 9, 80, 50),
		"full":       random(New(64, 40), 0, 0, 64, 40),
		"left-edge":  random(New(50, 30), 0, 5, 20, 25),
		"right-edge": random(New(50, 30), 31, 5, 50, 25),
		"top-edge":   random(New(50, 30), 10, 0, 40, 12),
		"bottom":     random(New(50, 30), 10, 19, 40, 30),
		"all-black":  New(33, 21),
		"1x1":        random(New(1, 1), 0, 0, 1, 1),
		"narrow":     random(New(3, 40), 0, 0, 3, 40),
		"short":      random(New(40, 2), 0, 0, 40, 2),
		"tiny":       random(New(4, 5), 0, 0, 4, 5),
	}
	// Scattered isolated lit pixels and a lit pixel in every corner.
	sparse := New(70, 45)
	for i := 0; i < 25; i++ {
		sparse.Pix[rng.Intn(len(sparse.Pix))] = colorspace.RGB{R: uint8(rng.Intn(256)), G: 255, B: uint8(rng.Intn(256))}
	}
	for _, i := range []int{0, sparse.W - 1, (sparse.H - 1) * sparse.W, len(sparse.Pix) - 1} {
		sparse.Pix[i] = colorspace.RGBWhite
	}
	cases["sparse"] = sparse
	return cases
}

// TestGaussianBlurMatchesReference runs the blur as one band (the streamed
// row order Photometric uses) and as three bands, so bands that start
// mid-image are covered too.
func TestGaussianBlurMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for name, img := range blurCases() {
			for _, sigma := range []float64{0.3, 0.9, 2.5} {
				got, want := img.GaussianBlur(sigma), gaussianBlurRef(img, sigma)
				if !bytes.Equal(flatten(got), flatten(want)) {
					t.Errorf("%s sigma=%v procs=%d: blur differs from the two-plane reference", name, sigma, procs)
				}
			}
		}
	}
}

// TestGaussianBlurRowsFinishesEachRowOnce checks the fused blur+row pass
// against the blur followed by a serial finishing loop, at GOMAXPROCS 1
// and 3, and with sigma 0 (copy, then finish). The finisher inverts
// each pixel and adds the row index, so a row finished twice, left
// unfinished or handed the wrong index would show.
func TestGaussianBlurRowsFinishesEachRowOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	finish := func(y int, row []colorspace.RGB) {
		for x, p := range row {
			row[x] = colorspace.RGB{R: 255 - p.R, G: p.G + uint8(y), B: p.B}
		}
	}
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for name, img := range blurCases() {
			for _, sigma := range []float64{0, 0.9, 2.5} {
				var bands atomic.Int32
				got := img.GaussianBlurRows(sigma, func() func(int, []colorspace.RGB) {
					bands.Add(1)
					return finish
				})
				want := img.GaussianBlur(sigma)
				for y := 0; y < want.H; y++ {
					finish(y, want.Pix[y*want.W:(y+1)*want.W])
				}
				if !bytes.Equal(flatten(got), flatten(want)) {
					t.Errorf("%s sigma=%v procs=%d: fused pass differs from blur then finish", name, sigma, procs)
				}
				// A helper still leaving an earlier call may hold a CPU, so
				// the band count can be lower than procs, never higher.
				if n := int(bands.Load()); n < 1 || n > min(procs, img.H) {
					t.Errorf("%s sigma=%v procs=%d: %d band finishers, want 1..%d", name, sigma, procs, n, min(procs, img.H))
				}
			}
		}
	}
}

func TestMotionBlurHorizontal(t *testing.T) {
	img := New(9, 1)
	img.Set(4, 0, colorspace.RGB{R: 90, G: 90, B: 90})
	out := img.MotionBlurHorizontal(3)
	if out.At(4, 0).R != 30 {
		t.Errorf("center = %d, want 30", out.At(4, 0).R)
	}
	if out.At(3, 0).R != 30 || out.At(5, 0).R != 30 {
		t.Error("motion blur did not spread to neighbors")
	}
	if out.At(2, 0).R != 0 {
		t.Error("motion blur spread too far")
	}
}

func TestSharpnessOrdersBlurLevels(t *testing.T) {
	// A checkerboard is the sharpest thing we can draw; blurring must
	// strictly reduce the sharpness metric.
	img := New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if (x/4+y/4)%2 == 0 {
				img.Set(x, y, colorspace.RGBWhite)
			}
		}
	}
	s0 := img.Sharpness()
	s1 := img.GaussianBlur(1).Sharpness()
	s2 := img.GaussianBlur(3).Sharpness()
	if !(s0 > s1 && s1 > s2) {
		t.Fatalf("sharpness not monotone in blur: %v, %v, %v", s0, s1, s2)
	}
}

func TestSharpnessDegenerate(t *testing.T) {
	if got := New(1, 1).Sharpness(); got != 0 {
		t.Errorf("1x1 sharpness = %v, want 0", got)
	}
}

// sharpnessRef is the pre-table Sharpness implementation, kept verbatim as
// the executable specification: the pooled, luma-table path must reproduce
// its result bit-for-bit (sharpness feeds vote weights, so a one-ulp drift
// would change experiment tables).
func sharpnessRef(img *Image) float64 {
	if img.W < 2 || img.H < 2 {
		return 0
	}
	w := img.W
	lumaF := func(p colorspace.RGB) float64 {
		return 0.299*float64(p.R) + 0.587*float64(p.G) + 0.114*float64(p.B)
	}
	rowSums := make([]float64, img.H-1)
	for y := 0; y < img.H-1; y++ {
		row := img.Pix[y*w : (y+1)*w]
		below := img.Pix[(y+1)*w : (y+2)*w]
		l := lumaF(row[0])
		var sum float64
		for x := 0; x < w-1; x++ {
			lr := lumaF(row[x+1])
			gx := lr - l
			gy := lumaF(below[x]) - l
			sum += gx*gx + gy*gy
			l = lr
		}
		rowSums[y] = sum
	}
	var sum float64
	for _, s := range rowSums {
		sum += s
	}
	return sum / float64((img.W-1)*(img.H-1))
}

func TestSharpnessMatchesReference(t *testing.T) {
	sizes := [][2]int{{2, 2}, {3, 7}, {17, 5}, {64, 48}, {640, 360}}
	for _, sz := range sizes {
		img := New(sz[0], sz[1])
		seed := uint32(12345)
		for i := range img.Pix {
			seed = seed*1664525 + 1013904223
			img.Pix[i] = colorspace.RGB{
				R: uint8(seed >> 24), G: uint8(seed >> 16), B: uint8(seed >> 8),
			}
		}
		if got, want := img.Sharpness(), sharpnessRef(img); got != want {
			t.Fatalf("%dx%d: Sharpness() = %v, reference = %v", sz[0], sz[1], got, want)
		}
	}
}

func TestSharpnessAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; the allocation contract is measured without it")
	}
	img := benchImage()
	img.Sharpness() // warm the pools
	// GC off: a collection mid-measurement would drain the sync.Pools and
	// the refill would count as an allocation of Sharpness's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(50, func() { img.Sharpness() }); n > 0 {
		t.Fatalf("Sharpness allocates %v per call after warmup", n)
	}
}

// rowFillTask writes the band's row index into every cell of its rows.
type rowFillTask struct {
	w   int
	out []int
}

func (t *rowFillTask) RunRows(y0, y1 int) {
	for y := y0; y < y1; y++ {
		for x := 0; x < t.w; x++ {
			t.out[y*t.w+x] = y
		}
	}
}

func TestParallelRowTasksCoversAllRows(t *testing.T) {
	for _, h := range []int{0, 1, 2, 7, 64, 361} {
		task := &rowFillTask{w: 5, out: make([]int, 5*h)}
		for i := range task.out {
			task.out[i] = -1
		}
		ParallelRowTasks(h, task)
		for i, v := range task.out {
			if v != i/5 {
				t.Fatalf("h=%d: cell %d = %d, want %d", h, i, v, i/5)
			}
		}
	}
}

func TestPNGRoundTrip(t *testing.T) {
	img := New(7, 5)
	img.Set(3, 2, colorspace.RGBGreen)
	img.Set(6, 4, colorspace.RGB{R: 1, G: 2, B: 3})
	path := filepath.Join(t.TempDir(), "frame.png")
	if err := img.WritePNGFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPNGFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != img.W || back.H != img.H {
		t.Fatalf("dimensions %dx%d, want %dx%d", back.W, back.H, img.W, img.H)
	}
	if !bytes.Equal(flatten(img), flatten(back)) {
		t.Fatal("PNG round trip altered pixels")
	}
}

func TestReadPNGMissingFile(t *testing.T) {
	if _, err := ReadPNGFile(filepath.Join(t.TempDir(), "nope.png")); err == nil {
		t.Fatal("reading missing file succeeded")
	}
}

func TestBilinearWithinPixelRangeProperty(t *testing.T) {
	img := New(8, 8)
	for i := range img.Pix {
		img.Pix[i] = colorspace.RGB{R: uint8(i * 31), G: uint8(i * 17), B: uint8(i * 7)}
	}
	prop := func(xq, yq uint16) bool {
		x := float64(xq%800) / 100 // [0, 8)
		y := float64(yq%800) / 100
		p := img.Bilinear(x, y)
		// Interpolation never exceeds the channel extremes of its corners.
		x0, y0 := int(math.Floor(x)), int(math.Floor(y))
		lo, hi := 255, 0
		for dy := 0; dy <= 1; dy++ {
			for dx := 0; dx <= 1; dx++ {
				v := int(img.At(x0+dx, y0+dy).R)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		return int(p.R) >= lo-1 && int(p.R) <= hi+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func flatten(img *Image) []byte {
	out := make([]byte, 0, len(img.Pix)*3)
	for _, p := range img.Pix {
		out = append(out, p.R, p.G, p.B)
	}
	return out
}
