package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dagcover"
)

// tracer records spans around the benchmark's calls into the mapper's
// layers. Spans stay in memory and are written as Chrome trace_event
// JSON when the run ends. A nil *tracer records nothing, so untraced
// runs pay one nil check per layer call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed layer call. Parent indexes the enclosing span
// (-1 for an op's root); Op groups the spans of one operation.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Op     int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// phases adds the mapper's own phase breakdown (MapResult.Phases) as
// child spans of the closed span id, laid back to back so that they
// end where the parent ends: inside a Map call the phases run last,
// after subject preparation. prefix names the engine ("core" or
// "treemap").
func (t *tracer) phases(id int, prefix string, p dagcover.PhaseBreakdown) {
	if t == nil || id < 0 {
		return
	}
	parts := []struct {
		name string
		ms   float64
	}{
		{"label", p.LabelWallMillis},
		{"area", p.AreaMillis},
		{"cover", p.CoverMillis},
		{"emit", p.EmitMillis},
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.spans[id]
	total := time.Duration(0)
	for _, pt := range parts {
		total += time.Duration(pt.ms * float64(time.Millisecond))
	}
	at := max(parent.End-total, parent.Start)
	for _, pt := range parts {
		d := time.Duration(pt.ms * float64(time.Millisecond))
		if d <= 0 {
			continue
		}
		end := min(at+d, parent.End)
		t.spans = append(t.spans, span{Name: prefix + "." + pt.name, Start: at, End: end, Parent: id, Op: parent.Op})
		at = end
	}
}

// layerOf maps a span name to the layer its self time is booked to.
// The layer names are this repo's modules, and "check" is the
// benchmark's own output checking. The catch-all buckets ("op.other",
// time inside an operation that no layer span covers, and "other", a
// span this table does not name) explain nothing, so namedLayers
// leaves them out.
func layerOf(name string) string {
	switch name {
	case "op":
		return "op.other"
	case "blif.read", "blif.stream":
		return "ingest"
	case "subject.build", "subject.digest":
		return "subject"
	case "core.map":
		return "core.other"
	case "choices.map":
		// Choice-graph construction and any failed labeling happen
		// inside one facade call; only its phases are split out.
		return "choices"
	case "core.label":
		return "label"
	case "core.area", "core.cover":
		return "cover"
	case "core.emit":
		return "emit"
	case "treemap.map", "treemap.label", "treemap.area", "treemap.cover", "treemap.emit":
		return "tree"
	case "verify":
		return "verify"
	case "blif.write":
		return "encode"
	case "http.roundtrip":
		return "transport"
	case "http.decode":
		return "client"
	case "check.output", "check.sha256":
		return "check"
	}
	return "other"
}

// namedLayers sums the self times of the layers a span name explains,
// leaving out the catch-all buckets.
func namedLayers(self map[string]time.Duration) time.Duration {
	var sum time.Duration
	for l, d := range self {
		if l != "op.other" && l != "other" {
			sum += d
		}
	}
	return sum
}

// selfTimes books every span's self time (its duration minus the time
// its children cover) to its layer.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[layerOf(s.Name)] += s.End - s.Start - child[i]
	}
	return out
}

// durations returns the total duration and count of the spans named
// name.
func (t *tracer) durations(name string) (total time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			total += s.End - s.Start
			n++
		}
	}
	return total, n
}

// printSelfTimes writes the per-layer self-time table against wall and
// returns the self time of the named layers.
func printSelfTimes(w io.Writer, self map[string]time.Duration, wall time.Duration) time.Duration {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%-12s %12s %8s\n", "layer", "self_ms", "of_wall")
	for _, l := range layers {
		fmt.Fprintf(w, "%-12s %12.2f %7.1f%%\n", l, ms(self[l]), 100*ratio(float64(self[l]), float64(wall)))
	}
	named := namedLayers(self)
	fmt.Fprintf(w, "%-12s %12.2f %7.1f%%  (wall %.2f ms)\n", "named", ms(named), 100*ratio(float64(named), float64(wall)), ms(wall))
	return named
}

// writeChrome exports the spans as Chrome trace_event JSON (complete
// events, one thread per op so concurrent ops do not interleave).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]int{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	doc, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
