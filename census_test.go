//go:build !race

package tempo

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestRetainedRecordCensus counts what a session's retained history costs
// per task record: a 40-tick bench/workloads/stress.json session keeps
// every observed schedule, and releasing their task arrays must free
// Sizeof(TaskRecord) bytes per record, up to the allocator's rounding of
// each array to its size class (at most an eighth). Each array is exactly
// as long as its schedule (cap == len), and a record owns nothing beside
// its array: its job and tenant are numbers, not names. The controller is
// off; what is retained does not depend on it, and the census stays
// quick. The race detector's instrumentation allocates on its own, hence
// the build tag.
func TestRetainedRecordCensus(t *testing.T) {
	spec, err := LoadScenarioFile("bench/workloads/stress.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Iterations = 40
	spec.Controller.Disabled = true
	sess, err := NewSession(spec, ScenarioOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		if _, err := sess.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	records := 0
	var scheds []*Schedule
	for i := 0; i < spec.Iterations; i++ {
		s := sess.ObservedSchedule(i)
		if cap(s.Tasks) != len(s.Tasks) {
			t.Fatalf("tick %d: %d task records in an array of %d", i, len(s.Tasks), cap(s.Tasks))
		}
		records += len(s.Tasks)
		scheds = append(scheds, s)
	}
	// Two collections each: the first moves the pooled Sims' buffers to
	// sync.Pool's victim cache, the second frees them.
	retained := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := retained()
	for _, s := range scheds {
		s.Tasks = nil
	}
	freed := float64(before - retained())
	perRecord := freed / float64(records)
	size := float64(unsafe.Sizeof(TaskRecord{}))
	t.Logf("%d task records in 40 ticks: %.1f retained bytes each, Sizeof %.0f", records, perRecord, size)
	if perRecord < size || perRecord > size*9/8 {
		t.Errorf("releasing the task records freed %.1f bytes each, want Sizeof(TaskRecord) = %.0f up to size-class rounding", perRecord, size)
	}
	runtime.KeepAlive(sess)
}
