package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share its id;
// Parent indexes the recorder's span list (-1 for an op's root span).
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Alloc  uint64 // bytes allocated process-wide while the span was open
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is driven from
// one goroutine: the benchmark wraps calls it makes itself, so spans
// nest by construction and never interleave.
type recorder struct {
	epoch  time.Time
	spans  []span
	sample [1]metrics.Sample
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.sample[0].Name = "/gc/heap/allocs:bytes"
	return r
}

// allocBytes reads the cumulative heap allocation counter without
// stopping the world (runtime.ReadMemStats would, at every span edge).
func (r *recorder) allocBytes() uint64 {
	metrics.Read(r.sample[:])
	if r.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return r.sample[0].Value.Uint64()
}

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Alloc: r.allocBytes()})
	id := len(r.spans) - 1
	r.spans[id].Start = time.Since(r.epoch)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = time.Since(r.epoch)
	r.spans[id].Alloc = r.allocBytes() - r.spans[id].Alloc
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		at := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// largestGap names the longest stretch of span root that none of its
// direct children covers: what a low trace coverage is missing.
func largestGap(spans []span, root int) string {
	var kids []span
	for _, s := range spans {
		if s.Parent == root {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	at, after := spans[root].Start, "the start of "+spans[root].Name
	var gap time.Duration
	desc := "no gap"
	note := func(until time.Duration, before string) {
		if until-at > gap {
			gap = until - at
			desc = fmt.Sprintf("%v between %s and %s", gap, after, before)
		}
	}
	for _, k := range kids {
		note(k.Start, k.Name)
		if k.End > at {
			at, after = k.End, k.Name
		}
	}
	note(spans[root].End, "the end of "+spans[root].Name)
	return desc
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceJSON renders spans as a Chrome trace: one thread per op, with
// the span's id, parent and allocation delta in args.
func traceJSON(spans []span) ([]byte, error) {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "alloc_bytes": s.Alloc},
		}
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// traceDir is where traced runs leave their span dumps, relative to the
// checkout root the benchmark is run from.
const traceDir = "bench/out"

func writeTrace(workload string, spans []span) (string, error) {
	b, err := traceJSON(spans)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
