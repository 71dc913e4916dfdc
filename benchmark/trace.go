package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's exported function — the program under test holds no spans yet.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root of its operation
	Op     int    `json:"op"`     // spans of one operation share this identifier
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Rows and Bytes count the work that crossed this boundary.
	Rows  int64 `json:"rows,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	// Replay marks a stage the harness re-ran on its own after a
	// composite call it could not open from outside (AuditTableParallel,
	// AuditStream, an HTTP round trip, Coordinator.AuditTable). A replay
	// child lies outside its parent's interval; the parent's self time
	// subtracts its duration instead.
	Replay bool `json:"replay,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced loop pays one nil check per operation.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	nextO int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextO++
	return t.nextO
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string, replay bool) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, Replay: replay})
	return len(t.spans)
}

// end closes the span and records the work counted at its boundary.
func (t *tracer) end(id int, rows, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Rows, s.Bytes = now, rows, bytes
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: the span's duration minus the part of its interval that its real
// children cover (overlapping children are not subtracted twice), minus
// the full duration of every replay child.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		d := s.dur()
		var real []span
		for _, c := range children[s.ID] {
			if c.Replay {
				d -= c.dur()
			} else {
				real = append(real, c)
			}
		}
		d -= covered(s, real)
		self[s.ID] = d
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// spanAgg sums the spans of one name: duration, rows, bytes, calls, and
// the duration in milliseconds per call and per operation.
type spanAgg struct {
	ns, rows, bytes int64
	calls           int
	perCallMs       []float64
	perOpMs         []float64
}

// aggregate sums every span called name.
func aggregate(spans []span, name string) spanAgg {
	var a spanAgg
	perOp := make(map[int]int64)
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		a.ns += s.dur()
		a.rows += s.Rows
		a.bytes += s.Bytes
		a.calls++
		a.perCallMs = append(a.perCallMs, float64(s.dur())/1e6)
		if _, ok := perOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		perOp[s.Op] += s.dur()
	}
	for _, op := range order {
		a.perOpMs = append(a.perOpMs, float64(perOp[op])/1e6)
	}
	return a
}

// nsPerRow is the aggregate's time per row crossing the boundary.
func (a spanAgg) nsPerRow() float64 {
	if a.rows == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.rows)
}

// selfOf sums the self time of every span with the given name.
func selfOf(spans []span, self map[int]int64, name string) (ns int64, rows int64, perCallMs []float64) {
	for _, s := range spans {
		if s.Name == name {
			ns += self[s.ID]
			rows += s.Rows
			perCallMs = append(perCallMs, float64(self[s.ID])/1e6)
		}
	}
	return ns, rows, perCallMs
}

// traceFile is the document written to out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	// Loop holds one span per operation (and per call the operation makes
	// itself) of the traced closed loop, at full parallelism; Replay holds
	// the stage-by-stage pass on one processor that the per-layer numbers
	// come from. Each has its own clock.
	Loop   []span `json:"loop"`
	Replay []span `json:"replay"`
}

func writeTrace(dir, workload string, seed int64, loop, replay []span) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	doc := traceFile{
		Workload: workload, Seed: seed, Loop: loop, Replay: replay,
		Note: "start/end are ns since the pass began; spans with replay=true were re-run by the harness after their parent returned, lie outside its interval and are subtracted from it by duration",
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
