package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a boundary the harness crosses from
// outside: workload → operation → encrypt / run / decrypt / http /
// compile → per-pass and per-op children. Times are microseconds since
// the recorder started. Op groups the spans of one operation. SelfUs is
// filled in when the trace is written.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	SelfUs  int64  `json:"self_us"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is the untraced run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished interval and returns its id for children.
func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartUs: start.Sub(r.t0).Microseconds(), EndUs: end.Sub(r.t0).Microseconds()})
	return id
}

// addSeq lays children that are known only by duration (compiler pass
// timings, per-opcode profile totals) end to end from the parent's
// start, so the parent's self time is what they leave uncovered.
func (r *recorder) addSeq(parent, op int, start time.Time, names []string, durs []time.Duration) []int {
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = r.add(parent, op, name, start, start.Add(durs[i]))
		start = start.Add(durs[i])
	}
	return ids
}

// finish moves the end of a span recorded before its children existed.
func (r *recorder) finish(id int, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndUs = end.Sub(r.t0).Microseconds()
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	for i := range r.spans {
		r.spans[i].SelfUs = self[r.spans[i].ID]
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		covered, edge := int64(0), s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, edge), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndUs - s.StartUs - covered
	}
	return self
}
