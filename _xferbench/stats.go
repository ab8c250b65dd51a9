package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sortedSeconds returns the samples in seconds, ascending.
func sortedSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	sort.Float64s(out)
	return out
}

// median of an ascending slice (0 when empty).
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest percentile of an ascending slice that still has
// tailSamples samples beyond it: the value with exactly tailSamples larger
// samples, and that percentile (as a fraction). With too few samples it
// falls back to the median.
func tail(s []float64) (value, pct float64) {
	n := len(s)
	if n <= 2*tailSamples {
		return median(s), 0.5
	}
	return s[n-tailSamples-1], float64(n-tailSamples) / float64(n)
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// meanSeconds is the mean of a set of durations in seconds (0 when empty).
func meanSeconds(ds []time.Duration) float64 {
	return ratio(sumDur(ds).Seconds(), float64(len(ds)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSetup runs fn reps times and returns the median wall time of the
// runs together with the last run's product; discard, when non-nil,
// releases each earlier product outside the timed region. Set-up is
// repeated so that setup_s is a median, not a single noisy sample.
func medianSetup[T any](reps int, fn func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]time.Duration, 0, reps)
	for i := 0; i < max(reps, 1); i++ {
		if i > 0 && discard != nil {
			prev := last
			last = *new(T) // drop the reference so discard can free it
			discard(prev)
		}
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0))
		last = v
	}
	return last, median(sortedSeconds(times)), nil
}

// rssSampler records the process's resident set size every 5 ms until
// stopped.
type rssSampler struct {
	mu      sync.Mutex
	samples []float64
	stopc   chan struct{}
	done    chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
			if v, err := statusMB("VmRSS:"); err == nil {
				s.mu.Lock()
				s.samples = append(s.samples, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// restart drops the samples taken so far.
func (s *rssSampler) restart() {
	s.mu.Lock()
	s.samples = s.samples[:0]
	s.mu.Unlock()
}

// stop ends sampling and returns once the sampler has exited.
func (s *rssSampler) stop() {
	close(s.stopc)
	<-s.done
}

// timedStart ends set-up: it collects set-up's garbage, returns the freed
// memory to the OS, and restarts the resident-set sampling, so rss_mb
// covers the timed part's working set alone.
func (o runOpts) timedStart() {
	debug.FreeOSMemory()
	if o.rss != nil {
		o.rss.restart()
	}
}

// rssMB is the median resident set sampled since timedStart, in MB. The
// peak is not steady enough to bound: on xfer_text both the kernel's
// high-water mark (VmHWM) and the 99th percentile of the samples moved
// between 70 and 102 MB across runs of the same code, set by where the
// garbage collections happened to fall, while the median repeated within
// a few percent. Without a sampler or samples it reads the current VmRSS.
func (o runOpts) rssMB() (float64, error) {
	var s []float64
	if o.rss != nil {
		o.rss.mu.Lock()
		s = append(s, o.rss.samples...)
		o.rss.mu.Unlock()
	}
	if len(s) == 0 {
		return statusMB("VmRSS:")
	}
	sort.Float64s(s)
	return median(s), nil
}

// statusMB reads one kB field of /proc/self/status, in MB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}

// allocMeter measures heap bytes allocated over an interval.
type allocMeter struct{ start uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc}
}

// mbPer returns MB allocated since start, per unit.
func (a allocMeter) mbPer(units int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ratio(float64(ms.TotalAlloc-a.start)/(1<<20), float64(units))
}

// digester hashes the deterministic outcome lines of a run.
type digester struct{ lines []string }

func (d *digester) add(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

func (d *digester) sum() string {
	h := sha256.Sum256([]byte(strings.Join(d.lines, "\n")))
	return hex.EncodeToString(h[:12])
}

// gate is the correctness check every delivered payload passes through. A
// mismatch is never a metric: it aborts the run.
func gate(unit string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	if len(want) != len(got) {
		return fmt.Errorf("%w: %s delivered %d bytes, sent %d", errIncorrect, unit, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%w: %s differs at byte %d (sent %#02x, delivered %#02x)", errIncorrect, unit, i, want[i], got[i])
		}
	}
	return fmt.Errorf("%w: %s differs", errIncorrect, unit)
}

// sameOutcome checks that a repeat of a deterministic unit reproduced its
// first outcome exactly.
func sameOutcome(unit, first, again string) error {
	if first == again {
		return nil
	}
	return fmt.Errorf("%w: %s is not deterministic: first run %q, repeat %q", errIncorrect, unit, first, again)
}
