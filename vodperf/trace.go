package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced call into a layer: offsets are nanoseconds since
// the run's epoch, and parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// write stores the spans as one JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// traceFile names the span file of one traced run inside the checkout.
func traceFile(root, workload string, seed uint64) string {
	return filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
