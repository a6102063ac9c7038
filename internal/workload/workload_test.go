package workload

import (
	"bytes"
	"testing"
	"time"
)

func mkJob(id string) JobSpec {
	return NewMapReduceJob(id, "T", 0,
		[]time.Duration{10 * time.Second, 20 * time.Second},
		[]time.Duration{30 * time.Second})
}

func TestNewMapReduceJobShape(t *testing.T) {
	j := mkJob("j1")
	if len(j.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(j.Stages))
	}
	if len(j.Stages[0].Tasks) != 2 || j.Stages[0].Tasks[0].Kind != Map {
		t.Fatalf("map stage wrong: %+v", j.Stages[0])
	}
	if len(j.Stages[1].Tasks) != 1 || j.Stages[1].Tasks[0].Kind != Reduce {
		t.Fatalf("reduce stage wrong: %+v", j.Stages[1])
	}
	if got := j.Stages[1].DependsOn; len(got) != 1 || got[0] != 0 {
		t.Fatalf("reduce deps = %v, want [0]", got)
	}
}

func TestMapOnlyJob(t *testing.T) {
	j := NewMapReduceJob("m", "T", 0, []time.Duration{time.Second}, nil)
	if len(j.Stages) != 1 {
		t.Fatalf("map-only job has %d stages", len(j.Stages))
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskCountAndTotalWork(t *testing.T) {
	j := mkJob("j1")
	if j.TaskCount() != 3 {
		t.Fatalf("TaskCount = %d, want 3", j.TaskCount())
	}
	if j.TotalWork() != 60*time.Second {
		t.Fatalf("TotalWork = %v, want 60s", j.TotalWork())
	}
}

func TestCriticalPath(t *testing.T) {
	j := mkJob("j1")
	// max map (20s) + max reduce (30s).
	if got := j.CriticalPath(); got != 50*time.Second {
		t.Fatalf("CriticalPath = %v, want 50s", got)
	}
	mo := NewMapReduceJob("m", "T", 0, []time.Duration{5 * time.Second, 7 * time.Second}, nil)
	if got := mo.CriticalPath(); got != 7*time.Second {
		t.Fatalf("map-only CriticalPath = %v, want 7s", got)
	}
}

func TestCriticalPathDiamondDAG(t *testing.T) {
	sec := func(n int) []TaskSpec {
		return []TaskSpec{{Kind: Map, Duration: time.Duration(n) * time.Second}}
	}
	j := JobSpec{
		ID: "d", Tenant: "T",
		Stages: []StageSpec{
			{Tasks: sec(10)},                        // 0
			{DependsOn: []int{0}, Tasks: sec(1)},    // 1: 11
			{DependsOn: []int{0}, Tasks: sec(20)},   // 2: 30
			{DependsOn: []int{1, 2}, Tasks: sec(5)}, // 3: 35
		},
	}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := j.CriticalPath(); got != 35*time.Second {
		t.Fatalf("CriticalPath = %v, want 35s", got)
	}
}

func TestValidateRejectsBadJobs(t *testing.T) {
	cases := []struct {
		name string
		job  JobSpec
	}{
		{"empty id", JobSpec{Tenant: "T", Stages: []StageSpec{{Tasks: []TaskSpec{{Duration: 1}}}}}},
		{"empty tenant", JobSpec{ID: "x", Stages: []StageSpec{{Tasks: []TaskSpec{{Duration: 1}}}}}},
		{"no stages", JobSpec{ID: "x", Tenant: "T"}},
		{"empty stage", JobSpec{ID: "x", Tenant: "T", Stages: []StageSpec{{}}}},
		{"zero duration", JobSpec{ID: "x", Tenant: "T", Stages: []StageSpec{{Tasks: []TaskSpec{{Duration: 0}}}}}},
		{"forward dep", JobSpec{ID: "x", Tenant: "T", Stages: []StageSpec{
			{DependsOn: []int{1}, Tasks: []TaskSpec{{Duration: 1}}},
			{Tasks: []TaskSpec{{Duration: 1}}},
		}}},
		{"out of range dep", JobSpec{ID: "x", Tenant: "T", Stages: []StageSpec{
			{DependsOn: []int{5}, Tasks: []TaskSpec{{Duration: 1}}},
		}}},
	}
	for _, c := range cases {
		if err := c.job.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid job", c.name)
		}
	}
}

func TestTraceSortStableByName(t *testing.T) {
	tr := &Trace{Jobs: []JobSpec{
		{ID: "b", Tenant: "T", Submit: 5},
		{ID: "a", Tenant: "T", Submit: 5},
		{ID: "c", Tenant: "T", Submit: 1},
	}}
	tr.Sort()
	gotIDs := []string{tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID}
	want := []string{"c", "a", "b"}
	for i := range want {
		if gotIDs[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", gotIDs, want)
		}
	}
}

func TestTraceValidateDuplicateID(t *testing.T) {
	tr := &Trace{Horizon: time.Hour, Jobs: []JobSpec{mkJob("dup"), mkJob("dup")}}
	if err := tr.Validate(); err == nil {
		t.Fatal("duplicate job IDs accepted")
	}
}

func TestTraceValidateHorizon(t *testing.T) {
	j := mkJob("late")
	j.Submit = 2 * time.Hour
	tr := &Trace{Horizon: time.Hour, Jobs: []JobSpec{j}}
	if err := tr.Validate(); err == nil {
		t.Fatal("submit past horizon accepted")
	}
}

func TestTraceTenantsAndByTenant(t *testing.T) {
	a := mkJob("a")
	b := mkJob("b")
	b.Tenant = "U"
	tr := &Trace{Horizon: time.Hour, Jobs: []JobSpec{a, b}}
	tenants := tr.Tenants()
	if len(tenants) != 2 || tenants[0] != "T" || tenants[1] != "U" {
		t.Fatalf("Tenants = %v", tenants)
	}
	if jobs := tr.ByTenant("U"); len(jobs) != 1 || jobs[0].ID != "b" {
		t.Fatalf("ByTenant(U) = %v", jobs)
	}
}

func TestTraceWindowRebasesTimes(t *testing.T) {
	j1 := mkJob("j1")
	j1.Submit = 10 * time.Minute
	j1.Deadline = 30 * time.Minute
	j2 := mkJob("j2")
	j2.Submit = 70 * time.Minute
	tr := &Trace{Horizon: 2 * time.Hour, Jobs: []JobSpec{j1, j2}}
	win := tr.Window(5*time.Minute, 65*time.Minute)
	if len(win.Jobs) != 1 {
		t.Fatalf("window has %d jobs, want 1", len(win.Jobs))
	}
	if win.Jobs[0].Submit != 5*time.Minute {
		t.Fatalf("rebased submit = %v, want 5m", win.Jobs[0].Submit)
	}
	if win.Jobs[0].Deadline != 25*time.Minute {
		t.Fatalf("rebased deadline = %v, want 25m", win.Jobs[0].Deadline)
	}
	if win.Horizon != time.Hour {
		t.Fatalf("window horizon = %v, want 1h", win.Horizon)
	}
}

// merge combines traces into one, preserving job identity and re-sorting.
// The horizon is the maximum of the inputs'.
func merge(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	for _, tr := range traces {
		if tr.Horizon > out.Horizon {
			out.Horizon = tr.Horizon
		}
		out.Jobs = append(out.Jobs, tr.Jobs...)
	}
	out.Sort()
	return out
}

func TestMergeTraces(t *testing.T) {
	a := &Trace{Horizon: time.Hour, Jobs: []JobSpec{mkJob("a")}}
	bJob := mkJob("b")
	bJob.Submit = time.Minute
	b := &Trace{Horizon: 2 * time.Hour, Jobs: []JobSpec{bJob}}
	m := merge("merged", a, b)
	if m.Horizon != 2*time.Hour {
		t.Fatalf("merged horizon = %v", m.Horizon)
	}
	if len(m.Jobs) != 2 || m.Jobs[0].ID != "a" {
		t.Fatalf("merged jobs = %v", m.Jobs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	j := mkJob("j1")
	j.Deadline = time.Hour
	tr := &Trace{Name: "rt", Horizon: 2 * time.Hour, Jobs: []JobSpec{j}}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.Horizon != 2*time.Hour || len(got.Jobs) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if got.Jobs[0].Deadline != time.Hour || got.Jobs[0].TaskCount() != 3 {
		t.Fatalf("job fields lost: %+v", got.Jobs[0])
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"jobs":[{"id":"","tenant":"t","stages":[]}]}`)); err == nil {
		t.Fatal("invalid trace accepted")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := &Trace{Name: "f", Horizon: time.Hour, Jobs: []JobSpec{mkJob("j")}}
	path := t.TempDir() + "/trace.json"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "f" || len(got.Jobs) != 1 {
		t.Fatalf("loaded = %+v", got)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTaskKindString(t *testing.T) {
	if Map.String() != "map" || Reduce.String() != "reduce" {
		t.Fatal("TaskKind strings wrong")
	}
	if TaskKind(7).String() == "" {
		t.Fatal("unknown kind should print")
	}
}
