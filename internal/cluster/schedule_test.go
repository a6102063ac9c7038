package cluster

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRecordLayout pins the record layout retained history is made of: a
// task record is at most 48 bytes and holds nothing the collector scans,
// and a job record's one pointer-bearing field is its ID. A name field
// coming back into either record fails here rather than in a heap
// profile.
func TestRecordLayout(t *testing.T) {
	if p := scanned(reflect.TypeOf(TaskRecord{}), "TaskRecord"); p != "" {
		t.Errorf("the collector scans %s", p)
	}
	if size := unsafe.Sizeof(TaskRecord{}); size > 48 {
		t.Errorf("TaskRecord is %d bytes, want at most 48", size)
	}
	job := reflect.TypeOf(JobRecord{})
	for i := 0; i < job.NumField(); i++ {
		f := job.Field(i)
		if p := scanned(f.Type, "JobRecord."+f.Name); p != "" && f.Name != "ID" {
			t.Errorf("the collector scans %s", p)
		}
	}
	if f, ok := job.FieldByName("ID"); !ok || f.Type.Kind() != reflect.String {
		t.Error("JobRecord.ID is not a string")
	}
}
