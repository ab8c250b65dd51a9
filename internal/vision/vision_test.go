package vision

import (
	"math/rand"
	"testing"

	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// paint draws a block of the given color.
func paint(img *raster.Image, x, y, size int, c colorspace.Color) {
	img.FillRect(x, y, size, size, colorspace.Paint(c))
}

func classifier() colorspace.Classifier { return colorspace.NewClassifier(0.3) }

func TestClassifyMapDimensions(t *testing.T) {
	img := raster.New(64, 48)
	m, mw, mh := ClassifyMap(img, classifier(), 2)
	if mw != 32 || mh != 24 || len(m) != 32*24 {
		t.Fatalf("map %dx%d len %d", mw, mh, len(m))
	}
	for _, c := range m {
		if c != colorspace.Black {
			t.Fatal("black image classified non-black")
		}
	}
}

func TestBlackBlobsFindsIsolatedBlocks(t *testing.T) {
	img := raster.New(100, 100)
	img.Fill(colorspace.RGBWhite)
	paint(img, 10, 10, 8, colorspace.Black)
	paint(img, 50, 60, 8, colorspace.Black)
	m, mw, mh := ClassifyMap(img, classifier(), 2)
	blobs := BlackBlobs(m, mw, mh)
	if len(blobs) != 2 {
		t.Fatalf("%d blobs, want 2", len(blobs))
	}
	for _, b := range blobs {
		if b.Width() != 4 || b.Height() != 4 {
			t.Errorf("blob %dx%d, want 4x4 (8px at stride 2)", b.Width(), b.Height())
		}
	}
}

func TestBlackBlobsMergesDiagonal(t *testing.T) {
	// 8-connectivity: two diagonal-touching blocks form one blob.
	img := raster.New(40, 40)
	img.Fill(colorspace.RGBWhite)
	paint(img, 10, 10, 6, colorspace.Black)
	paint(img, 16, 16, 6, colorspace.Black)
	m, mw, mh := ClassifyMap(img, classifier(), 2)
	blobs := BlackBlobs(m, mw, mh)
	if len(blobs) != 1 {
		t.Fatalf("%d blobs, want 1 (diagonal connectivity)", len(blobs))
	}
}

func TestBlackBlobsDropsSingleCells(t *testing.T) {
	img := raster.New(40, 40)
	img.Fill(colorspace.RGBWhite)
	img.Set(20, 20, colorspace.RGBBlack) // one pixel -> one map cell at most
	m, mw, mh := ClassifyMap(img, classifier(), 2)
	if blobs := BlackBlobs(m, mw, mh); len(blobs) != 0 {
		t.Fatalf("%d blobs from single-pixel noise, want 0", len(blobs))
	}
}

func TestBlobCentroid(t *testing.T) {
	img := raster.New(60, 60)
	img.Fill(colorspace.RGBWhite)
	paint(img, 20, 30, 10, colorspace.Black) // block spans map x 10..14, y 15..19
	m, mw, mh := ClassifyMap(img, classifier(), 2)
	blobs := BlackBlobs(m, mw, mh)
	if len(blobs) != 1 {
		t.Fatalf("%d blobs", len(blobs))
	}
	cx, cy := blobs[0].Centroid()
	if cx < 11.5 || cx > 12.5 || cy < 16.5 || cy > 17.5 {
		t.Errorf("centroid (%.1f, %.1f), want ≈(12, 17)", cx, cy)
	}
}

func TestKMeansCorrectConvergesToBlockCenter(t *testing.T) {
	img := raster.New(60, 60)
	img.Fill(colorspace.RGBWhite)
	paint(img, 24, 24, 12, colorspace.Black) // center (30, 30)
	// Start offset by a third of a block.
	got, found := KMeansCorrect(img, classifier(), geometry.Point{X: 26, Y: 34}, 13)
	if !found {
		t.Fatal("block not found")
	}
	if got.Dist(geometry.Point{X: 29.5, Y: 29.5}) > 1.2 {
		t.Fatalf("converged to (%.1f, %.1f), want ≈(29.5, 29.5)", got.X, got.Y)
	}
}

func TestKMeansCorrectNoBlackReturnsInput(t *testing.T) {
	img := raster.New(30, 30)
	img.Fill(colorspace.RGBWhite)
	p := geometry.Point{X: 15, Y: 15}
	got, found := KMeansCorrect(img, classifier(), p, 8)
	if found {
		t.Fatal("reported found with no black pixels")
	}
	if got != p {
		t.Fatalf("moved to %v with no black pixels", got)
	}
}

func TestKMeansCorrectTinyWindowClamped(t *testing.T) {
	img := raster.New(30, 30)
	img.Fill(colorspace.RGBWhite)
	paint(img, 14, 14, 4, colorspace.Black)
	// Edge below the minimum must still work (clamped internally).
	got, _ := KMeansCorrect(img, classifier(), geometry.Point{X: 15, Y: 15}, 0.5)
	if got.Dist(geometry.Point{X: 15.5, Y: 15.5}) > 1.5 {
		t.Fatalf("got %v", got)
	}
}

func TestBlackExtent(t *testing.T) {
	img := raster.New(60, 60)
	img.Fill(colorspace.RGBWhite)
	paint(img, 20, 20, 10, colorspace.Black)
	up, down, left, right := BlackExtent(img, classifier(), geometry.Point{X: 24, Y: 24}, 20)
	// From (24,24) inside the 20..29 block.
	if up != 4 || left != 4 {
		t.Errorf("up=%d left=%d, want 4", up, left)
	}
	if down != 5 || right != 5 {
		t.Errorf("down=%d right=%d, want 5", down, right)
	}
}

func TestBlackExtentRespectsMaxSteps(t *testing.T) {
	img := raster.New(60, 60) // all black
	up, down, left, right := BlackExtent(img, classifier(), geometry.Point{X: 30, Y: 30}, 7)
	for _, v := range []int{up, down, left, right} {
		if v != 7 {
			t.Fatalf("extent %d, want capped at 7", v)
		}
	}
}

func TestRingVotesOnRing(t *testing.T) {
	img := raster.New(90, 90)
	img.Fill(colorspace.RGBWhite)
	// 3x3 blocks of 10px: green ring, black center at (40..49, 40..49).
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			c := colorspace.Green
			if dx == 0 && dy == 0 {
				c = colorspace.Black
			}
			paint(img, 40+dx*10, 40+dy*10, 10, c)
		}
	}
	votes := RingVotes(img, classifier(), geometry.Point{X: 44.5, Y: 44.5}, 10, 10)
	if votes[colorspace.Green] != 8 {
		t.Fatalf("green votes = %d, want 8 (%v)", votes[colorspace.Green], votes)
	}
}

func TestRingVotesOffImage(t *testing.T) {
	img := raster.New(20, 20)
	votes := RingVotes(img, classifier(), geometry.Point{X: 0, Y: 0}, 30, 30)
	total := 0
	for _, n := range votes {
		total += n
	}
	if total > 3 {
		t.Fatalf("%d in-bounds ring samples at the corner, want <= 3", total)
	}
}

// floodFillBlobs is the reference labeling BlackBlobs must match: a
// raster-order scan that flood-fills each unvisited black cell's
// 8-connected component, one cell at a time.
func floodFillBlobs(classMap []colorspace.Color, mw, mh int) []Blob {
	visited := make([]bool, mw*mh)
	var out []Blob
	for start := range classMap {
		if classMap[start] != colorspace.Black || visited[start] {
			continue
		}
		blob := Blob{MinX: mw, MinY: mh}
		stack := []int{start}
		visited[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%mw, i/mw
			blob.Size++
			blob.sumX += x
			blob.sumY += y
			blob.MinX = min(blob.MinX, x)
			blob.MaxX = max(blob.MaxX, x)
			blob.MinY = min(blob.MinY, y)
			blob.MaxY = max(blob.MaxY, y)
			for _, d := range [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= mw || ny < 0 || ny >= mh {
					continue
				}
				j := ny*mw + nx
				if !visited[j] && classMap[j] == colorspace.Black {
					visited[j] = true
					stack = append(stack, j)
				}
			}
		}
		if blob.Size >= 2 {
			out = append(out, blob)
		}
	}
	return out
}

// checkBlobs compares the scratch labeling of one map with the flood fill,
// blob for blob and in order.
func checkBlobs(t *testing.T, s *BlobScratch, m []colorspace.Color, mw, mh int) {
	t.Helper()
	got := s.BlackBlobs(m, mw, mh)
	want := floodFillBlobs(m, mw, mh)
	if len(got) != len(want) {
		t.Fatalf("%dx%d map: %d blobs, flood fill finds %d", mw, mh, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%dx%d map: blob %d = %+v, flood fill gives %+v", mw, mh, i, got[i], want[i])
		}
	}
}

// randomMap fills an mw x mh map with black at the given density and the
// data colors elsewhere.
func randomMap(rng *rand.Rand, mw, mh int, density float64) []colorspace.Color {
	m := make([]colorspace.Color, mw*mh)
	for i := range m {
		if rng.Float64() < density {
			m[i] = colorspace.Black
		} else {
			m[i] = colorspace.Color(rng.Intn(int(colorspace.Black)))
		}
	}
	return m
}

func TestBlackBlobsMatchesFloodFill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s BlobScratch // reused across every size and density below
	for _, density := range []float64{0, 0.05, 0.2, 0.4, 0.5, 0.6, 0.8, 0.95, 1} {
		for trial := 0; trial < 40; trial++ {
			mw, mh := 1+rng.Intn(64), 1+rng.Intn(64)
			checkBlobs(t, &s, randomMap(rng, mw, mh, density), mw, mh)
		}
	}
	for _, dims := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {64, 1}, {1, 64}, {64, 64}, {33, 17}} {
		mw, mh := dims[0], dims[1]
		all := make([]colorspace.Color, mw*mh)
		for i := range all {
			all[i] = colorspace.Black
		}
		checkBlobs(t, &s, all, mw, mh) // all black, single rows and columns
		checkBlobs(t, &s, randomMap(rng, mw, mh, 0.5), mw, mh)
	}
}

func TestBlackBlobsDiagonalChains(t *testing.T) {
	var s BlobScratch
	const n = 24
	diag := func(fn func(x, y int) bool) []colorspace.Color {
		m := make([]colorspace.Color, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if fn(x, y) {
					m[y*n+x] = colorspace.Black
				}
			}
		}
		return m
	}
	for _, tc := range []struct {
		name string
		m    []colorspace.Color
		size int // the size of the one blob each chain must form
	}{
		{"main", diag(func(x, y int) bool { return x == y }), n},
		{"anti", diag(func(x, y int) bool { return x+y == n-1 }), n},
		{"checkerboard", diag(func(x, y int) bool { return (x+y)%2 == 0 }), n * n / 2},
		{"v", diag(func(x, y int) bool { return x == y || x == n-1-y }), 2 * n},
	} {
		checkBlobs(t, &s, tc.m, n, n)
		if got := s.BlackBlobs(tc.m, n, n); len(got) != 1 || got[0].Size != tc.size {
			t.Errorf("%s: %+v, want one diagonally connected blob of %d cells", tc.name, got, tc.size)
		}
	}
	// Parallel diagonals two cells apart stay separate.
	checkBlobs(t, &s, diag(func(x, y int) bool { return (x+y)%4 == 0 }), n, n)
}

// FuzzBlackBlobs checks the run-length labeling against the flood fill on
// arbitrary maps: each input byte is one cell, its color the byte modulo
// the five classes, laid out in rows of 1 + width%64 cells. One scratch
// serves every input, so stale state from a larger map would show.
func FuzzBlackBlobs(f *testing.F) {
	f.Add([]byte{4, 4, 0, 4, 4, 4, 0, 0, 4}, uint8(3))
	f.Add([]byte{4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0}, uint8(4))
	f.Add([]byte{1, 2, 3, 4}, uint8(0))
	var s BlobScratch
	f.Fuzz(func(t *testing.T, cells []byte, width uint8) {
		mw := 1 + int(width)%64
		mh := len(cells) / mw
		m := make([]colorspace.Color, mw*mh)
		for i := range m {
			m[i] = colorspace.Color(cells[i]) % (colorspace.Black + 1)
		}
		checkBlobs(t, &s, m, mw, mh)
	})
}
