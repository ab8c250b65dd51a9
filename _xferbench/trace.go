package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one unit share Unit; Parent is the
// id of the span that caused this one (0 for none). Replayed marks a span
// measured by calling the function again on the same inputs after the fact
// (the channel and raster calls inside Camera.Film, which the benchmark
// cannot wrap in place).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Unit     int    `json:"unit"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns the function that closes it and yields
// its id. The benchmark only gives a span a parent when it replays a call
// the parent made internally, so every child span is marked Replayed.
func (t *tracer) start(unit, parent int, layer, op string) func() int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Unit: unit, Layer: layer, Op: op,
		StartNS: int64(time.Since(t.epoch)), Replayed: parent != 0})
	return func() int {
		t.spans[id-1].EndNS = int64(time.Since(t.epoch))
		return id
	}
}

// opStats sums the durations and counts of the spans with a given op.
func (t *tracer) opStats(op string) (total time.Duration, n int) {
	for _, s := range t.spans {
		if s.Op == op {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// perCall is the mean busy time of one op in seconds.
func (t *tracer) perCall(op string) float64 {
	total, n := t.opStats(op)
	return ratio(total.Seconds(), float64(n))
}

// selfByLayer returns each layer's self time: span duration minus the
// duration of its child spans. Replayed children are subtracted from their
// parent and credited to their own layer, so the layers' self times always
// sum to the top-level spans' durations. A single parent's self time can
// come out negative when its replayed children ran slower than the
// original call; summed over many units the split is what the shares
// report.
func (t *tracer) selfByLayer() map[string]time.Duration {
	children := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Layer] += s.dur() - children[s.ID]
	}
	return out
}

// write dumps the spans as JSON lines into dir (created if needed).
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanFile names a run's span dump.
func spanFile(workload string, seed int64) string {
	return fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)
}
