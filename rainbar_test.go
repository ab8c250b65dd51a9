package rainbar_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rainbar"
)

func TestNewDefaults(t *testing.T) {
	c, err := rainbar.New()
	if err != nil {
		t.Fatal(err)
	}
	// The S4 defaults must reproduce the paper's per-frame capacity class
	// (~2.8 KB payload after RS overhead on 11470 data blocks).
	if c.FrameCapacity() < 2500 || c.FrameCapacity() > 2900 {
		t.Fatalf("default frame capacity = %d, want ≈2700", c.FrameCapacity())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := rainbar.New(rainbar.WithScreenSize(50, 50)); err == nil {
		t.Fatal("tiny screen accepted")
	}
	if _, err := rainbar.New(rainbar.WithRSParity(500)); err == nil {
		t.Fatal("oversized parity accepted")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	c, err := rainbar.New(rainbar.WithScreenSize(640, 360), rainbar.WithBlockSize(12))
	if err != nil {
		t.Fatal(err)
	}
	fc := rainbar.FileCodec{Codec: c}
	data := []byte("the public facade must round-trip a small file through frames and a channel")

	col := rainbar.NewCollector()
	ch, err := rainbar.NewChannel(rainbar.DefaultChannelConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := fc.NumChunks(len(data))
	for ci := 0; ci < n; ci++ {
		payload, err := fc.Chunk(data, ci)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.EncodeFrame(payload, uint16(ci), ci == n-1)
		if err != nil {
			t.Fatal(err)
		}
		capt, err := ch.Capture(f.Render())
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := c.DecodeFrame(capt)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(got); err != nil {
			t.Fatal(err)
		}
	}
	gotFile, _, err := col.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile, data) {
		t.Fatal("facade round trip corrupted the file")
	}
}

func TestErrorSentinels(t *testing.T) {
	c, err := rainbar.New(rainbar.WithScreenSize(640, 360), rainbar.WithBlockSize(12))
	if err != nil {
		t.Fatal(err)
	}
	// Oversized payload surfaces through the facade sentinel.
	big := make([]byte, c.FrameCapacity()+1)
	if _, err := c.EncodeFrame(big, 0, false); !errors.Is(err, rainbar.ErrPayloadTooLarge) {
		t.Fatalf("EncodeFrame(oversized) = %v, want ErrPayloadTooLarge", err)
	}
	// A blank (all-white) image has no corner trackers.
	f, err := c.EncodeFrame([]byte("x"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	img := f.Render()
	white := img.Pix[0] // top-left corner of a frame is background white
	for i := range img.Pix {
		img.Pix[i] = white
	}
	if _, _, err := c.DecodeFrame(img); !errors.Is(err, rainbar.ErrNoCornerTrackers) {
		t.Fatalf("DecodeFrame(blank) = %v, want ErrNoCornerTrackers", err)
	}
}

func TestFacadeMetrics(t *testing.T) {
	m := rainbar.NewMetrics()
	c, err := rainbar.New(
		rainbar.WithScreenSize(640, 360),
		rainbar.WithBlockSize(12),
		rainbar.WithRecorder(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, c.FrameCapacity())
	f, err := c.EncodeFrame(payload, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DecodeFrame(f.Render()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rainbar.WriteMetricsPrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rainbar_core_captures_total 1",
		`rainbar_core_stage_seconds_count{stage="detect"} 1`,
		`rainbar_core_stage_seconds_count{stage="correct"} 1`,
		"rainbar_core_cells_classified_total{color=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := rainbar.WriteMetricsJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rainbar_core_captures_total"`) {
		t.Errorf("json exposition missing captures counter:\n%s", buf.String())
	}
}
