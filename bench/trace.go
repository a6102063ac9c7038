package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent names the enclosing span of the same op ("" for a root), and
// names are unique within an op. Times are nanoseconds since the trace
// began.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. The layered pass
// runs on one goroutine, so there is no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed runs fn inside a span and returns when it started and ended.
func (t *tracer) timed(op int, name, parent string, fn func()) (start, end time.Time) {
	start = time.Now()
	fn()
	end = time.Now()
	t.add(op, name, parent, start, end)
	return start, end
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(op int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{name, op, parent, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace parses a trace file.
func readTrace(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// selfTimes checks a trace is well formed — every parent exists in the
// same op and every child lies inside its parent — and returns each
// span's self time: its duration minus the part of it its children
// cover. Children of one parent never overlap here (one goroutine), so
// that part is the sum of their durations.
func selfTimes(spans []span) ([]int64, error) {
	type key struct {
		op   int
		name string
	}
	index := make(map[key]int, len(spans))
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			return nil, fmt.Errorf("span %q of op %d ends before it starts", s.Name, s.Op)
		}
		k := key{s.Op, s.Name}
		if _, dup := index[k]; dup {
			return nil, fmt.Errorf("op %d has two spans named %q", s.Op, s.Name)
		}
		index[k] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent == "" {
			continue
		}
		p, ok := index[key{s.Op, s.Parent}]
		if !ok {
			return nil, fmt.Errorf("span %q of op %d names a missing parent %q", s.Name, s.Op, s.Parent)
		}
		if s.StartNs < spans[p].StartNs || s.EndNs > spans[p].EndNs {
			return nil, fmt.Errorf("span %q of op %d lies outside its parent %q", s.Name, s.Op, s.Parent)
		}
		self[p] -= s.EndNs - s.StartNs
	}
	for i, v := range self {
		if v < 0 {
			return nil, fmt.Errorf("span %q of op %d has negative self time", spans[i].Name, spans[i].Op)
		}
	}
	return self, nil
}
