package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the
// whole traced pass and are written out when it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // dataset.measure the call worked on
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the time children cover
}

// tracer records spans and per-pass counts on one goroutine.
type tracer struct {
	t0     time.Time
	pass   int
	spans  []span
	counts map[string][][]float64 // name -> pass -> values
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][][]float64{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, key string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Key: key, Pass: t.pass, Start: t.now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// do runs fn inside a span.
func (t *tracer) do(name, key string, parent int, fn func()) {
	id := t.begin(name, key, parent)
	fn()
	t.end(id)
}

// count records a per-pass observation that is not a duration.
func (t *tracer) count(name string, v float64) {
	c := t.counts[name]
	for len(c) <= t.pass {
		c = append(c, nil)
	}
	c[t.pass] = append(c[t.pass], v)
	t.counts[name] = c
}

// computeSelf fills each span's self time: its duration minus the
// union of its children's intervals.
func (t *tracer) computeSelf() {
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// perPass returns, for every pass, the mean duration in ms of the
// spans matching keep (NaN-free: passes without a match are skipped).
func (t *tracer) perPass(keep func(*span) bool) []float64 {
	sum := map[int]float64{}
	n := map[int]int{}
	for i := range t.spans {
		if s := &t.spans[i]; keep(s) {
			sum[s.Pass] += float64(s.End-s.Start) / 1e6
			n[s.Pass]++
		}
	}
	var out []float64
	for p := 0; p <= t.pass; p++ {
		if n[p] > 0 {
			out = append(out, sum[p]/float64(n[p]))
		}
	}
	return out
}

// medianMS is the median over passes of the mean duration (ms) of the
// spans named name, optionally restricted to one key.
func (t *tracer) medianMS(name, key string) float64 {
	return median(t.perPass(func(s *span) bool { return s.Name == name && (key == "" || s.Key == key) }))
}

// medianCount is the median over passes of the mean of a count.
func (t *tracer) medianCount(name string) float64 {
	var means []float64
	for _, vs := range t.counts[name] {
		if len(vs) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range vs {
			sum += v
		}
		means = append(means, sum/float64(len(vs)))
	}
	return median(means)
}

// spanSummary aggregates spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// traceDump is the written form of a traced pass.
type traceDump struct {
	Summary []spanSummary `json:"summary"`
	Spans   []span        `json:"spans"`
}

func (t *tracer) dump() *traceDump {
	t.computeSelf()
	by := map[string]*spanSummary{}
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.TotalMS += float64(s.End-s.Start) / 1e6
		a.SelfMS += float64(s.Self) / 1e6
	}
	sort.Strings(names)
	d := &traceDump{Spans: t.spans}
	for _, name := range names {
		d.Summary = append(d.Summary, *by[name])
	}
	return d
}

// stageSumRatio checks the stage split of the refresh misses. Each
// replay.analysis span's children are the stages of one analysis
// (measure, field, sweep_tree, algorithm2, layout, spectrum), replayed
// next to one query.snapshot_miss of the same key. Per key it takes the
// median over repetitions of stage sum / miss, pairing each replay with
// its neighbouring miss so that a change in machine speed between
// repetitions cancels, and it weights keys by their median miss. 1 means
// the stages account for the whole miss. Call after computeSelf.
func (t *tracer) stageSumRatio() float64 {
	miss := map[string][]float64{}
	stages := map[string][]float64{}
	for _, s := range t.spans {
		switch s.Name {
		case "query.snapshot_miss":
			miss[s.Key] = append(miss[s.Key], float64(s.End-s.Start))
		case "replay.analysis":
			stages[s.Key] = append(stages[s.Key], float64(s.End-s.Start-s.Self))
		}
	}
	num, den := 0.0, 0.0
	for key, ms := range miss {
		var ratios []float64
		for i, m := range ms {
			if i < len(stages[key]) {
				ratios = append(ratios, stages[key][i]/m)
			}
		}
		w := median(ms)
		num += median(ratios) * w
		den += w
	}
	return num / den
}
