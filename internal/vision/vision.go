// Package vision provides the small computer-vision primitives shared by
// the RainBar and COBRA decoders: connected-component labeling of black
// blocks on a classified map, the K-means-style location-correction
// iteration of §III-E, black-extent probing, and ring-color voting around
// a candidate corner-tracker center. Pure Go; these stand in for the
// OpenCV primitives a smartphone implementation would use.
package vision

import (
	"rainbar/internal/colorspace"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// Blob is a connected component of black cells on a classified,
// downsampled map. In both barcode layouts black cells are never adjacent
// (locators and corner-tracker centers are isolated by colored blocks), so
// each in-frame blob is a single block — which makes blobs both anchor
// candidates and block-size estimates. The dark screen surround forms one
// giant blob that size filters reject.
type Blob struct {
	// Size is the number of map cells in the component.
	Size int
	// MinX..MaxY is the bounding box in map coordinates.
	MinX, MinY, MaxX, MaxY int
	sumX, sumY             int
}

// Width returns the bounding-box width in map cells.
func (b *Blob) Width() int { return b.MaxX - b.MinX + 1 }

// Height returns the bounding-box height in map cells.
func (b *Blob) Height() int { return b.MaxY - b.MinY + 1 }

// Centroid returns the component centroid in map coordinates.
func (b *Blob) Centroid() (float64, float64) {
	return float64(b.sumX) / float64(b.Size), float64(b.sumY) / float64(b.Size)
}

// BlackBlobs labels 8-connected components of black cells on a classified
// map of mw x mh cells. Components smaller than 2 cells are dropped as
// noise.
func BlackBlobs(classMap []colorspace.Color, mw, mh int) []Blob {
	var s BlobScratch
	return s.BlackBlobs(classMap, mw, mh)
}

// BlobScratch holds the reusable working state of BlackBlobs — the run
// table, its union-find parents and the run-to-blob index — so a decoder
// that labels one map per capture does not reallocate them every time.
// The labeling works on maximal horizontal runs of black cells, not on
// cells, so its cost follows the number of runs: the dark surround of
// the screen, one giant blob covering most of the map, is one or two runs
// per row. The zero value is ready to use; a BlobScratch is not safe for
// concurrent use.
type BlobScratch struct {
	runs   []blackRun
	parent []int32 // union-find forest over runs; a root is its set's lowest index
	index  []int   // root run -> its component's slot in blobs
	blobs  []Blob
}

// blackRun is a maximal run of black cells x0..x1 (inclusive) in map row y.
type blackRun struct{ x0, x1, y int32 }

// BlackBlobs is the scratch-backed labeling; results are identical to the
// package-level BlackBlobs. The returned slice is owned by the scratch and
// valid until the next call.
//
// Each row's runs are unioned with every run of the previous row that
// overlaps [x0-1, x1+1], which is exactly 8-connectivity. Unions keep the
// lower run index as the root, so every component's root is its first run
// in raster order, and blobs come out in the order of their first cell:
// the order a raster-scan flood fill starts them in. Per-blob sums are
// integers, so folding them run by run gives the same fields as cell by
// cell.
func (s *BlobScratch) BlackBlobs(classMap []colorspace.Color, mw, mh int) []Blob {
	runs, parent := s.runs[:0], s.parent[:0]
	prev := 0 // index of the previous row's first run
	for y := 0; y < mh; y++ {
		row := classMap[y*mw : (y+1)*mw]
		cur := len(runs)
		p := prev // first previous-row run that may still touch this row's runs
		for x := 0; x < mw; x++ {
			if row[x] != colorspace.Black {
				continue
			}
			x0 := x
			for x+1 < mw && row[x+1] == colorspace.Black {
				x++
			}
			id := int32(len(runs))
			runs = append(runs, blackRun{int32(x0), int32(x), int32(y)})
			parent = append(parent, id)
			for p < cur && int(runs[p].x1) < x0-1 {
				p++
			}
			for q := p; q < cur && int(runs[q].x0) <= x+1; q++ {
				union(parent, id, int32(q))
			}
		}
		prev = cur
	}

	if cap(s.index) >= len(runs) {
		s.index = s.index[:len(runs)]
	} else {
		s.index = make([]int, len(runs))
	}
	index := s.index
	out := s.blobs[:0]
	for i, r := range runs {
		// Roots precede their members, so parent[parent[i]] is already a
		// root here: one step finishes the path compression.
		root := parent[parent[i]]
		parent[i] = root
		if int(root) == i {
			index[i] = len(out)
			out = append(out, Blob{MinX: int(r.x0), MinY: int(r.y), MaxX: int(r.x1), MaxY: int(r.y)})
		}
		b := &out[index[root]]
		x0, x1, y := int(r.x0), int(r.x1), int(r.y)
		n := x1 - x0 + 1
		b.Size += n
		b.sumX += n * (x0 + x1) / 2
		b.sumY += n * y
		b.MinX = min(b.MinX, x0)
		b.MaxX = max(b.MaxX, x1)
		b.MaxY = max(b.MaxY, y)
	}
	// Components smaller than 2 cells are noise; drop them in order.
	kept := out[:0]
	for _, b := range out {
		if b.Size >= 2 {
			kept = append(kept, b)
		}
	}
	s.runs, s.parent, s.blobs = runs, parent, kept
	return kept
}

// union joins the sets of runs a and b, keeping the lower root.
func union(parent []int32, a, b int32) {
	ra, rb := find(parent, a), find(parent, b)
	if ra < rb {
		parent[rb] = ra
	} else if rb < ra {
		parent[ra] = rb
	}
}

// find returns the root of run i, halving the path as it goes.
func find(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// ClassifyMap builds a downsampled classification map of the image with
// the given stride.
func ClassifyMap(img *raster.Image, cl colorspace.Classifier, stride int) (classMap []colorspace.Color, mw, mh int) {
	return ClassifyMapInto(nil, img, cl, stride)
}

// ClassifyMapInto is ClassifyMap writing into dst when its capacity
// suffices (allocating otherwise), so a per-capture decoder can reuse one
// map. The inner loop walks each source row as a slice, skipping the
// per-pixel bounds check of Image.At — every sampled coordinate is in
// bounds by construction of mw, mh.
func ClassifyMapInto(dst []colorspace.Color, img *raster.Image, cl colorspace.Classifier, stride int) (classMap []colorspace.Color, mw, mh int) {
	mw, mh = img.W/stride, img.H/stride
	if cap(dst) >= mw*mh {
		classMap = dst[:mw*mh]
	} else {
		classMap = make([]colorspace.Color, mw*mh)
	}
	for y := 0; y < mh; y++ {
		src := img.Pix[y*stride*img.W:]
		out := classMap[y*mw : (y+1)*mw]
		for x := 0; x < mw; x++ {
			out[x] = cl.ClassifyRGB(src[x*stride])
		}
	}
	return classMap, mw, mh
}

// KMeansCorrect is the paper's location-correction algorithm (§III-E):
// iterate "centroid of the black pixels within an edge-length window"
// until the location converges. The boolean reports whether any black
// pixels were found; when false, the input point is returned unchanged.
func KMeansCorrect(img *raster.Image, cl colorspace.Classifier, p geometry.Point, edge float64) (geometry.Point, bool) {
	if edge < 2 {
		edge = 2
	}
	half := int(edge/2 + 0.5)
	cur := p
	for iter := 0; iter < 12; iter++ {
		var sumX, sumY float64
		var n int
		cx, cy := int(cur.X+0.5), int(cur.Y+0.5)
		for dy := -half; dy <= half; dy++ {
			for dx := -half; dx <= half; dx++ {
				x, y := cx+dx, cy+dy
				if !img.In(x, y) {
					continue
				}
				if cl.ClassifyRGB(img.At(x, y)) == colorspace.Black {
					sumX += float64(x)
					sumY += float64(y)
					n++
				}
			}
		}
		if n == 0 {
			return p, false
		}
		next := geometry.Point{X: sumX / float64(n), Y: sumY / float64(n)}
		if next.Dist(cur) < 0.05 {
			return next, true
		}
		cur = next
	}
	return cur, true
}

// BlackExtent measures how far black pixels extend from p in the four
// axis directions, up to maxSteps each.
func BlackExtent(img *raster.Image, cl colorspace.Classifier, p geometry.Point, maxSteps int) (up, down, left, right int) {
	x0, y0 := int(p.X+0.5), int(p.Y+0.5)
	step := func(dx, dy int) int {
		n := 0
		for i := 1; i <= maxSteps; i++ {
			x, y := x0+i*dx, y0+i*dy
			if !img.In(x, y) || cl.ClassifyRGB(img.At(x, y)) != colorspace.Black {
				break
			}
			n++
		}
		return n
	}
	return step(0, -1), step(0, 1), step(-1, 0), step(1, 0)
}

// RingVotes samples the eight block-neighbor positions around a black
// block center (offsets dx, dy per axis, mean-filtered) and counts the
// classification of each — used to verify corner-tracker ring colors.
func RingVotes(img *raster.Image, cl colorspace.Classifier, p geometry.Point, dx, dy float64) map[colorspace.Color]int {
	votes := RingVoteCounts(img, cl, p, dx, dy)
	counts := make(map[colorspace.Color]int, 5)
	for c, n := range votes {
		if n > 0 {
			counts[colorspace.Color(c)] = n
		}
	}
	return counts
}

// RingVoteCounts is RingVotes returning a fixed-size tally indexed by
// color instead of a freshly allocated map — the allocation-free form the
// per-capture tracker search uses.
func RingVoteCounts(img *raster.Image, cl colorspace.Classifier, p geometry.Point, dx, dy float64) (counts [colorspace.Black + 1]int) {
	for _, off := range [8][2]float64{
		{-1, -1}, {0, -1}, {1, -1},
		{-1, 0}, {1, 0},
		{-1, 1}, {0, 1}, {1, 1},
	} {
		x := int(p.X + off[0]*dx + 0.5)
		y := int(p.Y + off[1]*dy + 0.5)
		if !img.In(x, y) {
			continue
		}
		counts[cl.ClassifyRGB(img.MeanFilterAt(x, y))]++
	}
	return counts
}
