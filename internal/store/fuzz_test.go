package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/scenario"
	"tempo/internal/workload"
)

// fuzzSeedSchedule is a hand-built schedule covering every record shape
// the codec branches on: a deadline job, an uncompleted killed job, map
// and reduce attempts, a preempted and a zero-length attempt.
func fuzzSeedSchedule() *cluster.Schedule {
	return &cluster.Schedule{
		Capacity:    4,
		Horizon:     time.Hour,
		TenantNames: []string{"a", "b"},
		Jobs: []cluster.JobRecord{
			{ID: "a-0", Tenant: 0, Submit: time.Minute, Finish: 9 * time.Minute, Deadline: 10 * time.Minute, Completed: true},
			{ID: "b-0", Tenant: 1, Submit: 2 * time.Minute, Finish: 5 * time.Minute, Killed: true},
		},
		Tasks: []cluster.TaskRecord{
			{Job: 0, Tenant: 0, Kind: workload.Map, Attempt: 1, Start: time.Minute, End: 4 * time.Minute, Outcome: cluster.TaskPreempted},
			{Job: 0, Tenant: 0, Kind: workload.Map, Attempt: 2, Start: 4 * time.Minute, End: 8 * time.Minute},
			{Job: 0, Tenant: 0, Kind: workload.Reduce, Attempt: 1, Start: 8 * time.Minute, End: 9 * time.Minute},
			{Job: 1, Tenant: 1, Kind: workload.Map, Attempt: 1, Start: 3 * time.Minute, End: 3 * time.Minute, Outcome: cluster.TaskKilled},
		},
	}
}

// FuzzDecodeTick hammers the recovery path's parser with arbitrary record
// payloads (the WAL's CRC vouches for the bytes it framed, not for who
// wrote them). decodeTick must return an error or a schedule — never
// panic, and never size an allocation from a field the payload did not
// pay for: the decoded record counts stay within the payload length. A
// payload that decodes is then held to the codec's inverse property from
// the decoded side: re-encoding the (tick, schedule) gives bytes that
// decode to an Equal schedule and re-encode to themselves. (Byte equality
// with the input is TestCodecRoundTrip's claim, for payloads EncodeTick
// wrote; a hand-made payload may spell the same schedule with a repeated
// or unused name or overlong varints.)
func FuzzDecodeTick(f *testing.F) {
	canonical := EncodeTick(nil, 7, fuzzSeedSchedule())
	f.Add(canonical)
	f.Add(EncodeTick(nil, 0, &cluster.Schedule{Capacity: 1, Horizon: time.Second}))
	f.Add(canonical[:len(canonical)/2])
	f.Add(append(append([]byte(nil), canonical...), 0))
	f.Add(craftedHeader(1 << 40))
	f.Add(craftedCount(craftedNames(), 1<<40))
	f.Add([]byte{})
	f.Add(craftedCount(craftedJob(craftedNames(), 1), 0))
	f.Add(EncodeTick(nil, 3, genSchedule(1, 12)))
	f.Add(craftedTask(craftedCount(craftedNames(), 0), 0))

	f.Fuzz(func(t *testing.T, payload []byte) {
		tick, sched, err := decodeTick(payload)
		if err != nil {
			return
		}
		if len(sched.Jobs) > len(payload) || len(sched.Tasks) > len(payload) {
			t.Fatalf("%d-byte payload decoded into %d jobs and %d tasks", len(payload), len(sched.Jobs), len(sched.Tasks))
		}
		again := EncodeTick(nil, tick, sched)
		tick2, sched2, err := decodeTick(again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if tick2 != tick || !sched2.Equal(sched) {
			t.Fatalf("re-encoded payload decodes to a different tick or schedule (tick %d -> %d)", tick, tick2)
		}
		if third := EncodeTick(nil, tick2, sched2); !bytes.Equal(third, again) {
			t.Fatalf("encoding is not a fixed point: %d bytes then %d bytes", len(again), len(third))
		}
	})
}

// genSchedule synthesizes a schedule from a seed with the shapes the
// emulator rarely or never writes: a shuffled tenant table that lists an
// unused tenant, tasks whose tenant is not their job's, repeated job IDs,
// zero-length and negative-length attempts, starts and submits out of
// order, negative times, and every flag and outcome.
func genSchedule(seed int64, n int) *cluster.Schedule {
	rng := rand.New(rand.NewSource(seed))
	at := func() time.Duration {
		d := time.Duration(rng.Int63n(int64(2 * time.Hour)))
		if rng.Intn(16) == 0 {
			d = -d
		}
		return d
	}
	s := &cluster.Schedule{Capacity: rng.Intn(64), Horizon: at(), TenantNames: []string{"t0", "t1", "t2", "t3", "unused"}}
	rng.Shuffle(len(s.TenantNames), func(i, j int) { s.TenantNames[i], s.TenantNames[j] = s.TenantNames[j], s.TenantNames[i] })
	for i := 0; i < n; i++ {
		tenant := s.TenantIndex(fmt.Sprintf("t%d", rng.Intn(4)))
		id := fmt.Sprintf("%s-%d", s.TenantNames[tenant], rng.Intn(n))
		if rng.Intn(4) > 0 || len(s.Jobs) == 0 { // otherwise the tasks below join the last job
			job := cluster.JobRecord{
				ID: id, Tenant: tenant, Submit: at(), Finish: at(),
				Completed: rng.Intn(2) == 0, Killed: rng.Intn(4) == 0,
			}
			if rng.Intn(2) == 0 {
				job.Deadline = at()
			}
			s.Jobs = append(s.Jobs, job)
		}
		for k := rng.Intn(4); k > 0; k-- {
			task := cluster.TaskRecord{
				Job: int32(len(s.Jobs) - 1), Tenant: tenant,
				Kind:    workload.TaskKind(rng.Intn(2)),
				Attempt: 1 + rng.Intn(3),
				Start:   at(),
				Outcome: cluster.TaskOutcome(rng.Intn(5)),
			}
			task.End = task.Start
			if rng.Intn(4) > 0 {
				task.End = at()
			}
			s.Tasks = append(s.Tasks, task)
		}
	}
	return s
}

// FuzzTickRoundTrip holds the codec to losslessness on generated
// schedules: decode(encode(s)) is Equal to s for any record view, not
// just the emulator's sorted, self-consistent one. n = 0 is the empty
// schedule.
func FuzzTickRoundTrip(f *testing.F) {
	f.Add(int64(1), byte(12))
	f.Add(int64(2), byte(0))
	f.Add(int64(3), byte(1))
	f.Add(int64(-9), byte(200))
	f.Fuzz(func(t *testing.T, seed int64, n byte) {
		s := genSchedule(seed, int(n))
		tick, got, err := decodeTick(EncodeTick(nil, int(n), s))
		if err != nil {
			t.Fatal(err)
		}
		if tick != int(n) || !got.Equal(s) {
			t.Fatalf("round trip changed the tick (%d -> %d) or the schedule", n, tick)
		}
	})
}

// FuzzDecodeSnapshot does for snapshot.bin what FuzzDecodeTick does for a
// WAL record, and with less protection in front of it: the file has no
// CRC, so whatever is on disk goes to the decoder. DecodeSnapshot must
// return an error or a snapshot — never panic, and never hold more than a
// constant multiple of the payload's length (every count is checked
// against the bytes left before its slice is made). A payload that
// decodes must re-encode to one that decodes again, to the same bytes on
// the second round. (A hand-made payload may spell a number with an
// overlong varint, so byte equality with the input is claimed only for
// what EncodeSnapshot wrote — TestSnapshotCodecRoundTrip.)
func FuzzDecodeSnapshot(f *testing.F) {
	small := EncodeSnapshot(nil, runtimeSnapshot(f, storeSpec(f), 3))
	stress := EncodeSnapshot(nil, runtimeSnapshot(f, stressSpec(f, 2), 2))
	f.Add(small)
	f.Add(stress)
	f.Add(small[:len(small)/2])
	f.Add(append(append([]byte(nil), small...), 0))
	f.Add(EncodeSnapshot(nil, &scenario.Snapshot{}))
	f.Add([]byte{snapshotFormat, 0, tagPresent, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := DecodeSnapshot(payload)
		if err != nil {
			return
		}
		if n := snapshotFootprint(snap); n > snapshotAllocFactor*len(payload) {
			t.Fatalf("%d-byte payload decoded into at least %d bytes", len(payload), n)
		}
		again := EncodeSnapshot(nil, snap)
		snap2, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if third := EncodeSnapshot(nil, snap2); !bytes.Equal(third, again) {
			t.Fatalf("encoding is not a fixed point: %d bytes then %d bytes", len(again), len(third))
		}
	})
}
