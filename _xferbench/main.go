// Command xferbench is the repository's end-to-end benchmark. It runs one
// of three seeded workloads against the real transfer stack and prints,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (latency, throughput,
// delivery, goodput, SLO, memory, set-up time), measured with no tracing
// attached. With --trace 1 the run is split into an untraced half and a
// traced half, and the metrics are the per-layer ones: busy time per call
// of each layer's public functions, counts and ratios measured where the
// work happens, and the tracing overhead and coverage.
//
// Every delivered byte is compared with what was sent; a wrong byte aborts
// the run with a non-zero exit and no result line. Before the result line
// the command prints a provenance line (revision, host, seed) and a digest
// of the deterministic simulated outcomes, which a bit-identical change
// leaves unchanged.
//
// Workloads: xfer_text (closed-loop text transfers), rx_decode (receiver
// decode of a pre-filmed capture stream), serve_fleet (concurrent clients
// running sessions through a journaling serve daemon). "all" runs the
// three in sequence from one process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// srcDigest is stamped by run.sh: a hash over the Go sources measured.
var srcDigest = "unknown"

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the command-line knobs shared by every workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// rss samples the resident set for rss_mb; nil reads VmRSS once.
	rss *rssSampler
}

// outcome is what one workload run hands back to main.
type outcome struct {
	res    result
	digest string // hash of the deterministic simulated outcomes
	notes  map[string]any
}

// errIncorrect marks a correctness-gate failure: a delivered byte differed
// from what was sent, or a deterministic outcome changed between repeats.
var errIncorrect = errors.New("incorrect output")

type workloadFunc func(runOpts) (*outcome, error)

var workloads = map[string]workloadFunc{
	"xfer_text":   func(o runOpts) (*outcome, error) { return runXfer(xferDefault, o) },
	"rx_decode":   func(o runOpts) (*outcome, error) { return runRx(rxDefault, o) },
	"serve_fleet": func(o runOpts) (*outcome, error) { return runServe(serveDefault, o) },
}

func main() {
	name := flag.String("workload", "", "xfer_text, rx_decode, serve_fleet or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	outDir := flag.String("out-dir", ".bench_build", "directory for spans and journal temp files")
	flag.Parse()
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, rss: startRSSSampler()}
	err := run(*name, opts)
	opts.rss.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xferbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(name string, opts runOpts) error {
	if opts.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	names := []string{name}
	if name == "all" {
		names = []string{"xfer_text", "rx_decode", "serve_fleet"}
	}
	var last result
	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		fn, ok := workloads[n]
		if !ok {
			return fmt.Errorf("unknown workload %q (want xfer_text, rx_decode, serve_fleet or all)", n)
		}
		out, err := fn(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if err := printProvenance(n, opts, out); err != nil {
			return err
		}
		last = out.res
		combined.Attempted += out.res.Attempted
		combined.Failed += out.res.Failed
		for k, v := range out.res.Metrics {
			combined.Metrics[n+"."+k] = v
		}
		if len(names) > 1 {
			if err := printJSON(out.res); err != nil {
				return err
			}
		}
	}
	if len(names) > 1 {
		last = combined
	}
	return printJSON(last)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// printProvenance writes the line that ties a result to what was measured:
// the revision (from the build's VCS stamp when built inside a git work
// tree, plus the dirty flag), the source digest, the host's CPU count,
// GOMAXPROCS, the Go version, the seed, and the outcome digest.
func printProvenance(name string, opts runOpts, out *outcome) error {
	rev, dirty := "none", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	p := map[string]any{
		"provenance": name,
		"git_rev":    rev,
		"git_dirty":  dirty,
		"src_digest": srcDigest,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"digest":     out.digest,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	keys := make([]string, 0, len(out.notes))
	for k := range out.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p[k] = out.notes[k]
	}
	fmt.Printf("digest %s %s\n", name, out.digest)
	return printJSON(p)
}

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them on every workload; a layer the workload does not
// exercise reads 0 (for rx_decode that includes every simulator time,
// which is the point: its timed region films nothing).
var layerMetrics = []struct{ name, unit string }{
	{"camera.film_s", "s"},
	{"channel.warp_s", "s"},
	{"channel.photometric_s", "s"},
	{"raster.blur_s", "s"},
	{"camera.captures_per_frame", "count"},
	{"faults.drop_frac", "ratio"},
	{"core.ingest_s", "s"},
	{"core.flush_s", "s"},
	{"core.detect_s", "s"},
	{"core.locate_s", "s"},
	{"core.extract_s", "s"},
	{"core.correct_s", "s"},
	{"core.capture_fail_frac", "ratio"},
	{"core.ladder_attempts_per_capture", "count"},
	{"core.ladder_win_frac", "ratio"},
	{"core.encode_s", "s"},
	{"core.render_s", "s"},
	{"transport.step_s", "s"},
	{"transport.chunk_s", "s"},
	{"transport.collect_s", "s"},
	{"transport.rounds_per_unit", "count"},
	{"transport.frames_sent_per_needed", "ratio"},
	{"serve.admit_s", "s"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.queue_wait_tail_s", "s"},
	{"serve.step_s", "s"},
	{"serve.snapshot_s", "s"},
	{"serve.worker_busy_frac", "ratio"},
	{"serve.rounds_per_session", "count"},
	{"journal.write_s", "s"},
	{"journal.sync_s", "s"},
	{"journal.records_per_session", "count"},
	{"journal.bytes_per_session", "B"},
	{"go.alloc_mb_per_unit", "MB"},
	{"trace.coverage_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"share.transport", "ratio"},
	{"share.core_encode", "ratio"},
	{"share.screen", "ratio"},
	{"share.camera", "ratio"},
	{"share.channel", "ratio"},
	{"share.raster", "ratio"},
	{"share.core_decode", "ratio"},
	{"share.simulator", "ratio"},
}

// endToEndUnits gives the unit of every end-to-end metric.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_s":    "s",
	"latency_tail_s":   "s",
	"throughput_per_s": "1/s",
	"delivered_frac":   "ratio",
	"goodput_Bps":      "B/s",
	"slo_met_frac":     "ratio",
	"rss_mb":           "MB",
}

// metricSet fills a result's metric map from plain values, taking units
// from the end-to-end or per-layer table. Per-layer names the workload
// did not set read 0.
func metricSet(trace bool, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric)
	if !trace {
		for name, unit := range endToEndUnits {
			v, ok := vals[name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s not measured", name)
			}
			out[name] = metric{Value: v, Unit: unit}
		}
		return out, nil
	}
	known := make(map[string]bool, len(layerMetrics))
	for _, m := range layerMetrics {
		known[m.name] = true
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	for name := range vals {
		if !known[name] {
			return nil, fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	return out, nil
}

// mix derives independent seeds from (base, a, b): splitmix64, the same
// discipline the serve daemon and the fault chains use.
func mix(base int64, a, b uint64) int64 {
	x := uint64(base) + 0x9E3779B97F4A7C15*(a+1) + 0xD1B54A32D192ED03*(b+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}
