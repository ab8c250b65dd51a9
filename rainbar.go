// Package rainbar is a pure-Go implementation of RainBar, the robust
// application-driven visual communication system of Wang et al.
// (ICDCS 2015): data is encoded into streams of 2-D color barcodes shown
// on a screen and decoded from camera captures, surviving perspective
// distortion, lens curvature, blur, noise, dim screens and — via per-row
// tracking bars — the rolling-shutter frame mixing that appears when the
// display rate exceeds half the capture rate.
//
// This package is the high-level facade. The building blocks live in
// internal/: core (the codec), channel/screen/camera (the simulated
// optical link), cobra and rdcode (the baselines), transport (file
// transfer with retransmission), obs (pipeline observability), and
// experiment (the paper's evaluation harness). See DESIGN.md for the
// system inventory and EXPERIMENTS.md for reproduced results.
//
// A codec is built with functional options:
//
//	c, err := rainbar.New(rainbar.WithBlockSize(13), rainbar.WithDisplayRate(10))
//
// and a whole link — codec, optical channel, rolling-shutter camera,
// retransmitting transport — with the re-exported building blocks:
//
//	sess := rainbar.NewSession(c, rainbar.Link{
//		Channel:     rainbar.MustNewChannel(rainbar.DefaultChannelConfig()),
//		Camera:      rainbar.DefaultCamera(),
//		DisplayRate: 10,
//	})
//	got, stats, err := sess.Transfer(data)
//
// Passing rainbar.WithRecorder(rainbar.NewMetrics()) instruments every
// pipeline stage; the collected series expose as Prometheus text or JSON.
package rainbar

import (
	"fmt"
	"io"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/faults"
	"rainbar/internal/obs"
	"rainbar/internal/transport"
)

// config is the resolved option set New builds from.
type config struct {
	screenW, screenH int
	blockSize        int
	displayRate      int
	rsParity         int
	appType          AppType
	recorder         Recorder
	recovery         RecoveryMode

	disableMiddleLocators     bool
	disableLocationCorrection bool
}

func defaults() config {
	// The decode-recovery ladder is on by default at the facade: it only
	// engages after a standard decode fails, so it never changes a decode
	// that would have succeeded. Opt out with WithRecovery(RecoveryOff).
	return config{screenW: 1920, screenH: 1080, blockSize: 13, displayRate: 10, recovery: RecoveryCombine}
}

// Option customizes a codec built by New. The zero option set reproduces
// the paper's Galaxy S4 sender: 1920x1080 screen, 13 px blocks, 10 fps,
// 16 RS parity bytes.
type Option func(*config)

// WithScreenSize sets the sender's screen dimensions in pixels.
func WithScreenSize(w, h int) Option {
	return func(c *config) { c.screenW, c.screenH = w, h }
}

// WithBlockSize sets the barcode block side in pixels.
func WithBlockSize(px int) Option {
	return func(c *config) { c.blockSize = px }
}

// WithDisplayRate sets the display rate in fps recorded in frame headers.
func WithDisplayRate(fps int) Option {
	return func(c *config) { c.displayRate = fps }
}

// WithRSParity sets the Reed-Solomon parity bytes per 255-byte message.
func WithRSParity(n int) Option {
	return func(c *config) { c.rsParity = n }
}

// WithAppType sets the application-type code placed in frame headers
// (AppText, AppImage, ... — drives the transport's recovery policy).
func WithAppType(t AppType) Option {
	return func(c *config) { c.appType = t }
}

// WithRecorder instruments the codec's decode pipeline: per-stage span
// timings, color-classification tallies, RS correction load, failure
// counts. A nil recorder leaves instrumentation off (the default).
func WithRecorder(r Recorder) Option {
	return func(c *config) { c.recorder = r }
}

// WithRecovery selects the decode-recovery mode (see RecoveryMode). The
// default is RecoveryCombine: the full multi-hypothesis ladder, plus
// cross-round soft combining in sessions built with NewSession. Recovery
// only runs after a standard decode fails, so any mode other than
// RecoveryOff can only add decoded frames, never change one.
func WithRecovery(m RecoveryMode) Option {
	return func(c *config) { c.recovery = m }
}

// WithoutMiddleLocators disables the middle code-locator column on the
// decoder side (the paper's Fig. 4 ablation).
func WithoutMiddleLocators() Option {
	return func(c *config) { c.disableMiddleLocators = true }
}

// WithoutLocationCorrection disables the K-means locator refinement of
// §III-E on the decoder side.
func WithoutLocationCorrection() Option {
	return func(c *config) { c.disableLocationCorrection = true }
}

// Codec is the public handle to a RainBar encoder/decoder pair.
type Codec = core.Codec

// Receiver reassembles a stream of captured images into frames, using the
// tracking-bar synchronization of §III-D to pair mixed captures.
type Receiver = core.Receiver

// NewReceiver creates a stream receiver over a codec.
func NewReceiver(c *Codec) *Receiver { return core.NewReceiver(c) }

// New creates a codec. Options override the paper's defaults.
func New(opts ...Option) (*Codec, error) {
	cfg := defaults()
	for _, opt := range opts {
		opt(&cfg)
	}
	geo, err := layout.NewGeometry(cfg.screenW, cfg.screenH, cfg.blockSize)
	if err != nil {
		return nil, fmt.Errorf("rainbar: %w", err)
	}
	coreCfg := core.Config{
		Geometry:                  geo,
		RSParity:                  cfg.rsParity,
		DisplayRate:               uint8(cfg.displayRate),
		AppType:                   uint8(cfg.appType),
		DisableMiddleLocators:     cfg.disableMiddleLocators,
		DisableLocationCorrection: cfg.disableLocationCorrection,
		Recorder:                  cfg.recorder,
	}
	cfg.recovery.Configure(&coreCfg)
	c, err := core.NewCodec(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("rainbar: %w", err)
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Optical link building blocks.

// Channel is the simulated screen-to-camera optical channel: perspective,
// lens curvature, blur, photometric distortion and chroma noise.
type Channel = channel.Channel

// ChannelConfig parameterizes a Channel (distance, view angle,
// brightness, ambient light, noise).
type ChannelConfig = channel.Config

// DefaultChannelConfig returns the paper's nominal capture condition.
func DefaultChannelConfig() ChannelConfig { return channel.DefaultConfig() }

// NewChannel validates the configuration and builds a channel.
func NewChannel(cfg ChannelConfig) (*Channel, error) { return channel.New(cfg) }

// MustNewChannel is NewChannel but panics on error.
func MustNewChannel(cfg ChannelConfig) *Channel { return channel.MustNew(cfg) }

// Camera is the rolling-shutter receiver camera model.
type Camera = camera.Camera

// DefaultCamera returns the paper's receiver camera (30 fps rolling
// shutter).
func DefaultCamera() Camera { return camera.Default() }

// ---------------------------------------------------------------------------
// Transport: whole-file transfer over the link.

// Session drives a file transfer over a link with per-round selective
// retransmission and display-rate fallback (§V).
type Session = transport.Session

// Link bundles the channel, camera and display rate a Session sends
// through.
type Link = transport.Link

// Stats reports what a Transfer did: rounds, frames sent/dropped, rate
// fallbacks, goodput.
type Stats = transport.Stats

// LossyStats extends Stats with the concealment report of a lossy
// (media) transfer.
type LossyStats = transport.LossyStats

// AppType classifies a payload, driving transport recovery policy.
type AppType = transport.AppType

// Application types.
const (
	AppGeneric = transport.AppGeneric
	AppText    = transport.AppText
	AppImage   = transport.AppImage
	AppAudio   = transport.AppAudio
)

// RecoveryMode selects how much of the decode-recovery ladder is used:
// RecoveryOff, RecoveryErasures (confidence-ranked erasures only),
// RecoveryLadder (erasures, μ-sweep, locator re-scan) or RecoveryCombine
// (the ladder plus cross-round soft combining).
type RecoveryMode = transport.RecoveryMode

// Decode-recovery modes, in increasing capability order.
const (
	RecoveryOff      = transport.RecoveryOff
	RecoveryErasures = transport.RecoveryErasures
	RecoveryLadder   = transport.RecoveryLadder
	RecoveryCombine  = transport.RecoveryCombine
)

// ParseRecoveryMode parses a recovery-mode name ("off", "erasures",
// "ladder", "combine"), as accepted by the CLIs' -recovery flag.
func ParseRecoveryMode(s string) (RecoveryMode, error) { return transport.ParseRecoveryMode(s) }

// RecoveryTrace records the hypotheses a recovered decode attempted and
// which one won; see Codec.DecodeFrameRecover.
type RecoveryTrace = core.RecoveryTrace

// NewSession builds a transfer session over a link. Tune retransmission
// via the Session fields (MaxRounds, MinDisplayRate, FrameBudget) before
// calling Transfer or TransferLossy; set Session.Recorder to observe
// rounds, retransmissions and rate fallbacks. Cross-round soft combining
// is enabled automatically when the codec was built with recovery on
// (the New default); clear Session.Combine to disable it.
func NewSession(c *Codec, link Link) *Session {
	return &Session{Codec: c, Link: link, Combine: c.Config().RecoveryBudget > 0}
}

// FileCodec chunks whole files into frames and back; see
// internal/transport for the wire format.
type FileCodec = transport.FileCodec

// Collector reassembles files from decoded frame payloads.
type Collector = transport.Collector

// NewCollector creates an empty reassembly collector.
func NewCollector() *Collector { return transport.NewCollector() }

// ---------------------------------------------------------------------------
// Observability.

// Recorder receives pipeline metrics. See internal/obs for the contract;
// NewMetrics returns the standard in-memory implementation.
type Recorder = obs.Recorder

// Metrics is an in-memory, concurrency-safe metrics recorder. Expose the
// collected series with WriteMetricsPrometheus or WriteMetricsJSON.
type Metrics = obs.Memory

// NewMetrics creates an in-memory recorder using a wall clock for span
// timings.
func NewMetrics() *Metrics { return obs.NewMemory() }

// WriteMetricsPrometheus writes the recorder's series in Prometheus text
// exposition format.
func WriteMetricsPrometheus(w io.Writer, m *Metrics) error { return m.WritePrometheus(w) }

// WriteMetricsJSON writes the recorder's series as indented JSON.
func WriteMetricsJSON(w io.Writer, m *Metrics) error { return m.WriteJSON(w) }

// ---------------------------------------------------------------------------
// Error sentinels. All are checkable with errors.Is against errors
// returned anywhere in the pipeline.

var (
	// ErrFrameDropped reports a capture discarded by injected link faults.
	ErrFrameDropped = faults.ErrFrameDropped
	// ErrLocatorLost means the decoder lost the code-locator columns.
	ErrLocatorLost = core.ErrLocatorLost
	// ErrNoCornerTrackers means the decoder could not find both corner
	// trackers in a captured image.
	ErrNoCornerTrackers = core.ErrNoCornerTrackers
	// ErrBadFrame means a frame failed error correction or its checksum.
	ErrBadFrame = core.ErrBadFrame
	// ErrPayloadTooLarge means Encode was given more bytes than one frame
	// holds.
	ErrPayloadTooLarge = core.ErrPayloadTooLarge
	// ErrInconsistentBars means the tracking bars disagree with the header
	// by 2 or more steps; the paper drops such captures (§III-D).
	ErrInconsistentBars = core.ErrInconsistentBars
)
