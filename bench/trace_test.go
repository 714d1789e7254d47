package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// op [0,100]
	//   new_estimator [0,10]
	//   run           [10,90]
	//     epoch [10,40]   rank tracks overlap: [30,60] covers 20 new ms
	//     epoch [30,60]
	//     epoch [85,95]   clipped to the parent's end: 5 ms
	// probe [100,130], a sibling root with no children
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "new_estimator", Start: 0, End: ms(10)},
		{ID: 2, Parent: 0, Name: "run", Start: ms(10), End: ms(90)},
		{ID: 3, Parent: 2, Name: "epoch", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 2, Name: "epoch", Start: ms(10), End: ms(40)},
		{ID: 5, Parent: 2, Name: "epoch", Start: ms(85), End: ms(95)},
		{ID: 6, Parent: -1, Name: "probe", Start: ms(100), End: ms(130)},
	}
	want := map[int]time.Duration{0: ms(10), 1: ms(10), 2: ms(25), 3: ms(30), 4: ms(30), 5: ms(10), 6: ms(30)}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", id, spans[id].Name, got[id], w)
		}
	}
}

func TestTracerNilAndChromeFile(t *testing.T) {
	var off *tracer // untraced ops run against a nil tracer
	id := off.begin("x", -1, 0, 0)
	off.end(id)
	off.add("y", id, 0, 0, 0, 1, nil)
	if id != -1 || off.now() != 0 {
		t.Fatalf("nil tracer must record nothing, got id %d", id)
	}

	tr := newTracer()
	root := tr.begin("workload", -1, -1, 0)
	child := tr.begin("op", root, 0, 1)
	tr.end(child)
	tr.add("epoch", child, 0, 1, 0, tr.now(), map[string]any{"tau": 7})
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(file.TraceEvents))
	}
	op, epoch := file.TraceEvents[1], file.TraceEvents[2]
	if op.Name != "op" || op.Ph != "X" || op.Tid != 1 || op.Args["parent"] != float64(root) {
		t.Errorf("op event = %+v", op)
	}
	if epoch.Name != "epoch" || epoch.Args["parent"] != float64(child) || epoch.Args["tau"] != float64(7) {
		t.Errorf("epoch event = %+v", epoch)
	}
}
