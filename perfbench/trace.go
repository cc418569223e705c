package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted but dropped.
const maxSpans = 2_000_000

// span is one timed call across a layer boundary. Spans of one epoch,
// collection or Run share a Group; Parent is the span that caused it
// (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Group  uint64 `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// openSpan is a span whose call is still running. The zero value
// (tracing off) records nothing.
type openSpan struct {
	id, parent, group uint64
	name              string
	start             time.Time
}

// tracer keeps the spans of the traced units in memory. Recording is
// off outside them, so an untraced unit of a traced run pays one
// atomic load per would-be span.
type tracer struct {
	on      atomic.Bool
	t0      time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOn starts or stops recording; a nil tracer stays off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// enabled reports whether spans are being recorded; a nil tracer never
// records.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) open(name string, parent, group uint64) openSpan {
	if !t.enabled() {
		return openSpan{}
	}
	return openSpan{id: t.next.Add(1), parent: parent, group: group, name: name, start: time.Now()}
}

// close records s and returns its duration.
func (t *tracer) close(s openSpan) time.Duration {
	if s.id == 0 {
		return 0
	}
	end := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: s.id, Parent: s.parent, Group: s.group, Name: s.name,
			Start: s.start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return end.Sub(s.start)
}

// layer is the span name's prefix: "service.send" belongs to service.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part of
// its interval that its children cover (children of one span may run
// concurrently, so the covered part is the union of their intervals).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := union(children[s.ID], s.Start, s.End)
		self[layer(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// union returns how much of [lo, hi] the intervals cover.
func union(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv {
		if x[0] > curHi {
			flush()
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	flush()
	return total
}

// count returns how many spans were recorded, dropped ones included.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// writeFile stores the run record and every span as JSON.
func (t *tracer) writeFile(path string, h host) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(struct {
		Host    host   `json:"host"`
		Dropped int    `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{h, t.dropped, t.spans})
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// addSelfTimes reports each self-time layer per report carried.
func addSelfTimes(m map[string]float64, t *tracer, reports int64) {
	self := t.selfTimes()
	for _, l := range selfLayers {
		m["self_ns_per_report."+l] = perReport(float64(self[l].Nanoseconds()), reports)
	}
	m["trace.spans"] = float64(t.count())
}

// addOverhead reports the median throughput of a traced run's untraced
// and traced units and the share of throughput tracing cost.
func addOverhead(m map[string]float64, untraced, traced float64) {
	m["trace.untraced_reports_per_s"] = untraced
	m["trace.reports_per_s"] = traced
	if untraced > 0 {
		m["trace.overhead_frac"] = 1 - traced/untraced
	}
}

// durations collects timings and reports order statistics.
type durations []time.Duration

// quantile returns the q-quantile, interpolated between the closest
// ranks; 0 when empty.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

func (d durations) median() time.Duration { return d.quantile(0.5) }

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func perReport(total float64, reports int64) float64 {
	if reports == 0 {
		return 0
	}
	return total / float64(reports)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
