package vision_test

import (
	"testing"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/vision"
)

// BenchmarkBlackBlobs labels the detector's stride-2 class map of a real
// 1280x720 capture: a full 13-px frame through the default channel at
// 14 cm, where the dark surround is one blob covering most of the map.
func BenchmarkBlackBlobs(b *testing.B) {
	geo, err := layout.NewGeometry(1280, 720, 13)
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCodec(core.Config{Geometry: geo})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, c.FrameCapacity())
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	f, err := c.EncodeFrame(payload, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg := channel.DefaultConfig()
	cfg.DistanceCM = 14
	img, err := channel.MustNew(cfg).Capture(f.Render())
	if err != nil {
		b.Fatal(err)
	}
	m, mw, mh := vision.ClassifyMap(img, colorspace.NewClassifier(colorspace.DefaultTV), 2)
	var s vision.BlobScratch
	if len(s.BlackBlobs(m, mw, mh)) == 0 {
		b.Fatal("no blobs on the capture's class map")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BlackBlobs(m, mw, mh)
	}
}
