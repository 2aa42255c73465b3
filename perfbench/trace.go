package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// span is one timed call into a public function of the program: Start and
// End are wall-clock Unix nanoseconds, so spans recorded inside the job
// (which runs in the benchmark process as rank 0) share its clock.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
}

// tracer records spans in memory when enabled; when disabled begin and end
// do nothing, so untraced runs time only what the end-to-end metrics need.
type tracer struct {
	on    bool
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, time.Now().UnixNano(), 0)
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Now().UnixNano()
	}
}

// add records a span timed elsewhere and returns its ID.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

// adopt appends spans recorded elsewhere (the job's), re-parenting their
// roots under parent and renumbering their IDs into this tracer.
func (t *tracer) adopt(spans []span, parent int) {
	if !t.on {
		return
	}
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// stageRow is an engine stage record shown under the job span with ID
// Parent. Stage records carry durations but no start times, so each row
// starts at its parent's start and is marked duration-only. Track is the
// stage's index in its run, which keeps rows of one run from overlapping.
type stageRow struct {
	Parent  int
	Track   int
	Stage   engine.StageMetrics
	Process string
}

// traceEvent is one Chrome trace-event ("X" complete event, microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans and stage rows as Chrome trace-event JSON.
// Spans go on track 1 and stage rows on tracks from 100.
func writeTrace(path string, spans []span, rows []stageRow, machine machineBlock) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans recorded")
	}
	origin := spans[0].Start
	for _, s := range spans {
		origin = min(origin, s.Start)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var events []traceEvent
	for _, s := range spans {
		events = append(events, traceEvent{
			Name: s.Name, Cat: "span", Ph: "X", Ts: us(s.Start - origin), Dur: us(s.End - s.Start),
			Pid: 1, Tid: 1, Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	for _, r := range rows {
		p := spans[r.Parent]
		events = append(events, traceEvent{
			Name: r.Stage.Name, Cat: "stage", Ph: "X", Ts: us(p.Start - origin),
			Dur: r.Stage.TaskTime().Seconds() * 1e6, Pid: 1, Tid: 100 + r.Track,
			Args: map[string]any{
				"parent": r.Parent, "duration_only": true, "dur_is": "summed task wall", "process": r.Process,
				"kind": r.Stage.Kind.String(), "tasks": len(r.Stage.Tasks),
				"max_task_s": r.Stage.MaxTaskTime().Seconds(), "codec_s": r.Stage.SerializeTime().Seconds(),
				"fetch_wait_s": r.Stage.FetchWait().Seconds(), "driver_s": r.Stage.DriverTime.Seconds(),
			},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": map[string]any{"machine": machine}}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
