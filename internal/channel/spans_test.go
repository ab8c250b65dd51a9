package channel

import (
	"fmt"
	"sync"
	"testing"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// fullRowWarp is the reference warpMix must match: every capture pixel of
// every row is mapped through lens∘inverse-homography and sampled if it
// lands on the screen. It also reports which pixels it lit.
func fullRowWarp(t *testing.T, cfg Config, frame *raster.Image, jx, jy float64) (*raster.Image, []bool) {
	t.Helper()
	w, h := frame.W, frame.H
	hom, err := geometry.PerspectiveView(float64(w), float64(h), cfg.ViewAngleDeg, cfg.scale(), jx, jy)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := hom.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	lens := cfg.lens(w, h)
	out := raster.New(w, h)
	lit := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src := inv.Apply(lens.Apply(geometry.Point{X: float64(x), Y: float64(y)}))
			if src.X < -1 || src.X > float64(w) || src.Y < -1 || src.Y > float64(h) {
				continue
			}
			lit[y*w+x] = true
			out.Pix[y*w+x] = frame.Bilinear(src.X, src.Y)
		}
	}
	return out, lit
}

// isFullRows reports whether every row's span is the whole row.
func isFullRows(spans []rowSpan, w int) bool {
	for _, s := range spans {
		if s != (rowSpan{0, int32(w)}) {
			return false
		}
	}
	return true
}

// gradientFrame has no black pixel, so a lit capture pixel away from the
// screen's edge is never black.
func gradientFrame(w, h int) *raster.Image {
	img := raster.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img.Pix[y*w+x] = colorspace.RGB{R: uint8(1 + x%250), G: uint8(1 + y%250), B: 128}
		}
	}
	return img
}

// checkSpans warps frame at jitter (jx, jy) through the span-limited
// kernel and the full-row reference, and requires identical pixels and
// every lit pixel inside its row's span.
func checkSpans(t *testing.T, cfg Config, frame *raster.Image, jx, jy float64) {
	t.Helper()
	w, h := frame.W, frame.H
	ch := MustNew(cfg)
	got, err := ch.warpMix([]*raster.Image{frame}, nil, jx, jy)
	if err != nil {
		t.Fatal(err)
	}
	want, lit := fullRowWarp(t, cfg, frame, jx, jy)
	spans := cfg.warpSpans(w, h)
	for y := 0; y < h; y++ {
		lo, hi := int(spans[y].lo), int(spans[y].hi)
		for x := 0; x < w; x++ {
			i := y*w + x
			if lit[i] && (x < lo || x >= hi) {
				t.Fatalf("jitter (%g, %g): lit pixel (%d, %d) outside its row's span [%d, %d)", jx, jy, x, y, lo, hi)
			}
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("jitter (%g, %g): pixel (%d, %d) = %v, full rows give %v", jx, jy, x, y, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestWarpSpansMatchFullRows(t *testing.T) {
	type lensCfg struct{ k1, k2 float64 }
	// Every size covers the distance and angle extremes; the small ones
	// sweep finely, the large ones only sample, to keep the test fast
	// under -race. The jitter corners are the draws that move the screen
	// farthest.
	grid := []struct {
		w, h      int
		distances []float64
		angles    []float64
	}{
		{8, 8, []float64{6, 8, 10, 14, 20, 30, 40}, []float64{-60, -45, -20, 0, 15, 40, 60}},
		{400, 192, []float64{6, 14, 40}, []float64{-60, 0, 60}},
		{640, 360, []float64{6, 14, 40}, []float64{-60, 35}},
		{1280, 720, []float64{14}, []float64{-40, 10}},
	}
	for _, g := range grid {
		frame := gradientFrame(g.w, g.h)
		for _, lens := range []lensCfg{{0, 0}, {0.05, 0.008}} {
			for _, jp := range []float64{0, 0.6, 3} {
				for _, d := range g.distances {
					for _, a := range g.angles {
						cfg := DefaultConfig()
						cfg.DistanceCM, cfg.ViewAngleDeg = d, a
						cfg.LensK1, cfg.LensK2, cfg.JitterPx = lens.k1, lens.k2, jp
						if g.w >= 400 && d >= 14 && isFullRows(cfg.warpSpans(g.w, g.h), g.w) {
							t.Fatalf("%dx%d %+v: whole rows for a screen smaller than the capture", g.w, g.h, cfg)
						}
						name := fmt.Sprintf("%dx%d/d%g/a%g/k%g/j%g", g.w, g.h, d, a, lens.k1, jp)
						t.Run(name, func(t *testing.T) {
							checkSpans(t, cfg, frame, 0, 0)
							if jp == 0 || g.w > 640 {
								return
							}
							for _, j := range [][2]float64{{-jp, -jp}, {-jp, jp}, {jp, -jp}, {jp, jp}} {
								checkSpans(t, cfg, frame, j[0], j[1])
							}
						})
					}
				}
			}
		}
	}
}

func TestWarpSpansTinyScreen(t *testing.T) {
	// Far away, a 9x9 screen projects to less than a pixel around the
	// capture centre (4.5, 4.5), which is not a pixel centre: at zero
	// jitter no pixel is lit, yet a jitter corner lights one. A span
	// built from the lit pixels of a zero-jitter scan would be empty here.
	frame := gradientFrame(9, 9)
	anyLit := func(lit []bool) bool {
		for _, l := range lit {
			if l {
				return true
			}
		}
		return false
	}
	for _, d := range []float64{100, 150, 200} {
		for _, a := range []float64{0, 30, 60} {
			cfg := DefaultConfig()
			cfg.DistanceCM, cfg.ViewAngleDeg = d, a
			if _, lit := fullRowWarp(t, cfg, frame, 0, 0); anyLit(lit) {
				t.Fatalf("d=%g a=%g: a pixel is lit at zero jitter", d, a)
			}
			jitterLit := false
			for _, j := range [][2]float64{{-0.6, -0.6}, {-0.6, 0.6}, {0.6, -0.6}, {0.6, 0.6}} {
				checkSpans(t, cfg, frame, j[0], j[1])
				_, lit := fullRowWarp(t, cfg, frame, j[0], j[1])
				jitterLit = jitterLit || anyLit(lit)
			}
			if !jitterLit {
				t.Fatalf("d=%g a=%g: no jitter corner lights a pixel", d, a)
			}
		}
	}
}

func TestWarpSpansNegativeLens(t *testing.T) {
	// Barrel distortion contracts the lens image; the spans assume nothing
	// about the lens, so they hold without a special case.
	frame := gradientFrame(400, 192)
	for _, jp := range []float64{0, 0.6, 3} {
		cfg := DefaultConfig()
		cfg.DistanceCM, cfg.ViewAngleDeg = 7, -50
		cfg.LensK1, cfg.LensK2, cfg.JitterPx = -0.05, -0.008, jp
		for _, j := range [][2]float64{{0, 0}, {-jp, jp}, {jp, -jp}, {jp, jp}} {
			checkSpans(t, cfg, frame, j[0], j[1])
		}
	}
}

func TestWarpSpansFullRowFallback(t *testing.T) {
	// At 2.5 cm and 60° the 8x8 screen's corners are still in front of the
	// camera, but the sampled box [-1,w]x[-1,h] crosses the horizon: its
	// image is not a quadrilateral, so every row is mapped in full.
	cfg := DefaultConfig()
	cfg.DistanceCM, cfg.ViewAngleDeg = 2.5, 60
	if spans := cfg.warpSpans(8, 8); !isFullRows(spans, 8) {
		t.Fatalf("spans %v, want whole rows", spans)
	}
	frame := gradientFrame(8, 8)
	for _, j := range [][2]float64{{0, 0}, {-0.6, 0.6}, {0.6, -0.6}} {
		checkSpans(t, cfg, frame, j[0], j[1])
	}
}

func TestWarpSpansConcurrentBuild(t *testing.T) {
	// Goroutines that warp one new configuration at once may all build its
	// spans; every capture must still match the full-row reference.
	frame := gradientFrame(160, 90)
	cfg := DefaultConfig()
	cfg.DistanceCM, cfg.ViewAngleDeg = 17.25, 12.5
	want, _ := fullRowWarp(t, cfg, frame, 0, 0)
	got := make([]*raster.Image, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = MustNew(cfg).warpMix([]*raster.Image{frame}, nil, 0, 0)
		}(i)
	}
	wg.Wait()
	for i, img := range got {
		if img == nil {
			t.Fatalf("goroutine %d: warp failed", i)
		}
		for j := range want.Pix {
			if img.Pix[j] != want.Pix[j] {
				t.Fatalf("goroutine %d: pixel %d = %v, full rows give %v", i, j, img.Pix[j], want.Pix[j])
			}
		}
	}
}

// BenchmarkWarpMix warps one 640x360 frame at 14 cm, the transfer
// benchmark's geometry, through the default channel.
func BenchmarkWarpMix(b *testing.B) {
	frame := gradientFrame(640, 360)
	cfg := DefaultConfig()
	cfg.DistanceCM = 14
	ch := MustNew(cfg)
	frames := []*raster.Image{frame}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ch.WarpMix(frames, nil)
		if err != nil {
			b.Fatal(err)
		}
		raster.Recycle(out)
	}
}
