package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"taskml/internal/compss"
	"taskml/internal/trace"
)

// span is one interval the benchmark timed around a layer call, or one
// task attempt taken from the runtime's observer stream.
type span struct {
	name       string
	start, end time.Time
	parent     int  // index of the enclosing benchmark span, -1 for a root
	leaf       bool // no task attempt is attributed to it (e.g. serve.push)
}

// tracer records the benchmark's own spans. A nil tracer records nothing,
// so the untraced run pays one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	return t.open(name, parent, false)
}

// beginLeaf opens a span that task attempts are never attributed to.
func (t *tracer) beginLeaf(name string, parent int) int {
	return t.open(name, parent, true)
}

func (t *tracer) open(name string, parent int, leaf bool) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, leaf: leaf})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durations returns the durations of the closed spans named name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

// total is the summed duration of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			sum += s.end.Sub(s.start)
		}
	}
	return sum
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// taskSpans pairs each attempt's Start with the End or Failure closing it,
// in event order — the pairing trace.Chrome uses, which stays correct
// across sequential runtimes that reuse task ids.
func taskSpans(events []compss.Event) []span {
	type key struct{ task, attempt int }
	open := map[key]time.Time{}
	var out []span
	for _, ev := range events {
		k := key{ev.Task, ev.Attempt}
		switch ev.Kind {
		case compss.EventStart:
			open[k] = ev.Time
		case compss.EventEnd, compss.EventFailure:
			if st, ok := open[k]; ok {
				delete(open, k)
				out = append(out, span{name: "task:" + ev.Name, start: st, end: ev.Time, parent: -1, leaf: true})
			}
		}
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes attributes every task span to the innermost non-leaf benchmark
// span containing it, then computes each span's self time: its duration
// minus the part of it its children cover. Rows aggregate by name.
func selfTimes(bench, tasks []span) []selfRow {
	all := append(append([]span(nil), bench...), tasks...)
	children := make([][]int, len(all))
	for i, s := range bench {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	// Task spans attach to the deepest enclosing span, found by scanning
	// the benchmark spans sorted by start.
	order := make([]int, 0, len(bench))
	for i, s := range bench {
		if !s.leaf && !s.end.IsZero() {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return bench[order[a]].start.Before(bench[order[b]].start) })
	depth := func(i int) int {
		d := 0
		for p := bench[i].parent; p >= 0; p = bench[p].parent {
			d++
		}
		return d
	}
	for ti, t := range tasks {
		best, bestDepth := -1, -1
		hi := sort.Search(len(order), func(k int) bool { return bench[order[k]].start.After(t.start) })
		for k := hi - 1; k >= 0; k-- {
			b := bench[order[k]]
			if !b.end.Before(t.end) {
				if d := depth(order[k]); d > bestDepth {
					best, bestDepth = order[k], d
				}
			}
		}
		if best >= 0 {
			children[best] = append(children[best], len(bench)+ti)
		}
	}

	rows := map[string]*selfRow{}
	for i, s := range all {
		if s.end.IsZero() {
			continue
		}
		dur := s.end.Sub(s.start)
		self := dur - covered(s, all, children[i])
		r := rows[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.TotalS += dur.Seconds()
		r.SelfS += self.Seconds()
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfS > out[b].SelfS })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to parent.
func covered(parent span, all []span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := all[k]
		a, b := c.start, c.end
		if b.IsZero() {
			continue
		}
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				sum += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
		} else if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		sum += curB.Sub(curA)
	}
	return sum
}

// benchPid is the Chrome trace process holding the benchmark's own spans,
// next to the runtime (0), data-plane (1) and serving (2) processes.
const benchPid = 3

// writeTrace writes the traced run's Chrome trace (the collector's rows
// plus the benchmark spans) and its self-time table under cfg.outDir, and
// prints the table's largest rows on the log.
func writeTrace(cfg runConfig, workload string, tr *tracer, col *trace.Collector) error {
	bench := tr.snapshot()
	events := col.Events()
	rows := selfTimes(bench, taskSpans(events))

	cache, fleet, serving := col.CacheSamples(), col.FleetSamples(), col.ServeSamples()
	t := trace.ChromeAll(events, cache, fleet, serving)
	// ChromeAll measures from the first observer record; benchmark spans
	// usually open earlier, so shift its rows to start at the first span.
	var origin, first time.Time
	earliest := func(ts time.Time) {
		if origin.IsZero() || ts.Before(origin) {
			origin = ts
		}
	}
	for _, ev := range events {
		earliest(ev.Time)
	}
	for _, s := range cache {
		earliest(s.Time)
	}
	for _, s := range fleet {
		earliest(s.Time)
	}
	for _, s := range serving {
		earliest(s.Time)
	}
	for _, s := range bench {
		if first.IsZero() || s.start.Before(first) {
			first = s.start
		}
	}
	if !first.IsZero() && (origin.IsZero() || first.Before(origin)) {
		if !origin.IsZero() {
			shift := float64(origin.Sub(first).Nanoseconds()) / 1e3
			for i := range t.Events {
				if t.Events[i].Ph != "M" {
					t.Events[i].Ts += shift
				}
			}
		}
		origin = first
	}
	t.Add(trace.TraceEvent{Name: "process_name", Ph: "M", Pid: benchPid, Args: map[string]any{"name": "benchmark"}})
	for _, s := range bench {
		// Leaf spans are per-call timings (one per serve.Push): they feed
		// the self-time table, but as slices they would swamp the viewer.
		if s.end.IsZero() || s.leaf {
			continue
		}
		d := 0
		for p := s.parent; p >= 0; p = bench[p].parent {
			d++
		}
		us := func(x time.Time) float64 { return float64(x.Sub(origin).Nanoseconds()) / 1e3 }
		t.Add(trace.TraceEvent{Name: s.name, Cat: "bench", Ph: "B", Ts: us(s.start), Pid: benchPid, Tid: d},
			trace.TraceEvent{Name: s.name, Cat: "bench", Ph: "E", Ts: us(s.end), Pid: benchPid, Tid: d})
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", workload, cfg.seed))
	if err := t.WriteFile(base + ".trace.json"); err != nil {
		return err
	}
	js, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".selftime.json", js, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "self time (%s.selftime.json, trace in %s.trace.json):\n", base, base)
	for i, r := range rows {
		if i == 12 {
			break
		}
		fmt.Fprintf(cfg.log, "  %-28s %6d × %10.3fs total %10.3fs self\n", r.Name, r.Count, r.TotalS, r.SelfS)
	}
	return nil
}
