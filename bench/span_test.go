package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, StartUs: 30, EndUs: 60},  // overlaps 2: counted once
		{ID: 4, Parent: 1, StartUs: 90, EndUs: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, StartUs: 10, EndUs: 40},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 0, 3: 30, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if off.add(0, 0, "x", time.Now(), time.Now()) != 0 {
		t.Error("nil recorder recorded a span")
	}
	off.finish(1, time.Now()) // must not panic
	if err := off.write("unused"); err != nil {
		t.Error(err)
	}

	r := newRecorder()
	root := r.add(0, 1, "op", r.t0, r.t0.Add(time.Second))
	ids := r.addSeq(root, 1, r.t0, []string{"a", "b"}, []time.Duration{300 * time.Millisecond, 500 * time.Millisecond})
	if len(ids) != 2 || r.spans[ids[1]-1].StartUs != 300_000 || r.spans[ids[1]-1].EndUs != 800_000 {
		t.Errorf("addSeq laid children out wrongly: %+v", r.spans)
	}
	if self := selfTimes(r.spans)[root]; self != 200_000 {
		t.Errorf("parent self time %d, want 200000", self)
	}
	r.finish(root, r.t0.Add(2*time.Second))
	if r.spans[root-1].EndUs != 2_000_000 {
		t.Errorf("finish did not move the end: %+v", r.spans[root-1])
	}
}
