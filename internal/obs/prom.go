package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). Errors are sticky: the first write error is kept
// and later calls become no-ops, so call sites can render a whole page
// and check Err once.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// Counter emits one cumulative counter.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.header(name, help, "counter")
	p.printf("%s %d\n", name, v)
}

// Gauge emits one gauge.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.printf("%s %s\n", name, formatFloat(v))
}

// LabeledValue is one sample of a single-label metric family.
type LabeledValue struct {
	Label string // label name
	Value string // label value
	V     float64
}

// CounterVec emits a counter family with one label per sample.
func (p *PromWriter) CounterVec(name, help string, samples []LabeledValue) {
	p.header(name, help, "counter")
	for _, s := range samples {
		p.printf("%s{%s=\"%s\"} %s\n", name, s.Label, escapeLabel(s.Value), formatFloat(s.V))
	}
}

// GaugeVec emits a gauge family with one label per sample.
func (p *PromWriter) GaugeVec(name, help string, samples []LabeledValue) {
	p.header(name, help, "gauge")
	for _, s := range samples {
		p.printf("%s{%s=\"%s\"} %s\n", name, s.Label, escapeLabel(s.Value), formatFloat(s.V))
	}
}

// Histogram emits a snapshot as a Prometheus histogram. Internal
// log-linear buckets are coarsened to power-of-two boundaries (one
// `le` per octave) to keep series counts sane; scale converts the
// recorded unit into the exported one (1e-9 for nanoseconds→seconds,
// 1 for dimensionless sizes). Buckets are cumulative and end with the
// mandatory +Inf sample equal to _count.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, scale float64) {
	p.header(name, help, "histogram")
	p.histogram(name, "", s, scale)
}

// LabeledHistogram is one member of a single-label histogram family.
type LabeledHistogram struct {
	Label string // label name
	Value string // label value
	S     HistogramSnapshot
}

// HistogramVec emits a histogram family with one label per member, each
// rendered as Histogram renders one.
func (p *PromWriter) HistogramVec(name, help string, members []LabeledHistogram, scale float64) {
	p.header(name, help, "histogram")
	for _, m := range members {
		p.histogram(name, fmt.Sprintf("%s=\"%s\",", m.Label, escapeLabel(m.Value)), m.S, scale)
	}
}

// histogram writes the samples of one histogram; labels, when not empty,
// is the member's label pair followed by a comma.
func (p *PromWriter) histogram(name, labels string, s HistogramSnapshot, scale float64) {
	max := s.Max()
	var cum int64
	bucket := 0
	// Octave k's bound is 2^k - 1, which is exactly the upper edge of
	// the last internal bucket of the octave (and of the unit buckets
	// below 8), so the cumulative counts are exact, not approximated.
	for k := 0; k <= 63; k++ {
		bound := int64(1)<<uint(k) - 1
		for bucket < numBuckets {
			_, hi := BucketBounds(bucket)
			if hi > bound {
				break
			}
			cum += s.Counts[bucket]
			bucket++
		}
		p.printf("%s_bucket{%sle=%q} %d\n", name, labels, formatFloat(float64(bound)*scale), cum)
		if bound >= max && cum == s.Count {
			break
		}
	}
	p.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, s.Count)
	if labels != "" {
		labels = "{" + labels[:len(labels)-1] + "}"
	}
	p.printf("%s_sum%s %s\n", name, labels, formatFloat(float64(s.Sum)*scale))
	p.printf("%s_count%s %d\n", name, labels, s.Count)
}
