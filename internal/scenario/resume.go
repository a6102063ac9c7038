package scenario

import (
	"fmt"

	"tempo/internal/cluster"
	"tempo/internal/core"
)

// Crash recovery for running scenarios. A live scenario's durable state
// splits in two (internal/store persists both):
//
//   - a periodic Snapshot: the tick cursor, the per-iteration reports
//     and the controller's state (sample cloud, RNG position, guard
//     memory, step count) — everything Apply consults besides what
//     Build derives from the spec. The runtime is the only per-tick
//     record: the controller keeps none, so its share of a snapshot
//     does not grow with ticks;
//   - the observed schedules, one WAL record per tick, each an encoding of
//     the schedule's record view (Jobs and Tasks).
//
// Resume rebuilds the runtime from the spec, restores the snapshot, and
// Applies the WAL schedules past the snapshot cursor — the same Apply a
// live tick runs on what it just observed. Because every other input of
// Apply is a pure function of the spec, the resumed runtime continues the
// original trajectory bit-for-bit: after the final tick its Report is
// byte-identical to an uninterrupted Run's.

// Snapshot is the serializable checkpoint of a Runtime after Cursor
// completed ticks.
type Snapshot struct {
	// Cursor is how many control intervals had run when the snapshot was
	// taken. len(Iterations) == Cursor always.
	Cursor     int               `json:"cursor"`
	Iterations []IterationReport `json:"iterations"`
	// Controller is nil when the spec disables the control loop.
	Controller *core.ControllerState `json:"controller,omitempty"`
}

// Snapshot captures the runtime's durable state at its current tick
// cursor. The observed schedules are deliberately not part of it — they
// are the WAL's half of the durable state.
func (rt *Runtime) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		Cursor:     len(rt.iterations),
		Iterations: make([]IterationReport, 0, len(rt.iterations)),
	}
	for _, it := range rt.iterations {
		cp := it
		cp.Observed = append([]float64(nil), it.Observed...)
		snap.Iterations = append(snap.Iterations, cp)
	}
	if rt.controller != nil {
		cs, err := rt.controller.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", rt.Spec.Name, err)
		}
		snap.Controller = cs
	}
	return snap, nil
}

// Resume rebuilds a runtime mid-scenario from its durable state: the spec
// (rebuilt via Build), an optional snapshot, and the schedules observed
// before the crash (ticks 0..len(schedules), oldest first — in recovery,
// WAL-replayed). Ticks covered by the snapshot are restored directly;
// ticks past the snapshot cursor but covered by a schedule are re-driven
// through Apply with the recorded schedule in place of a fresh
// observation. The returned runtime has StepsDone() ==
// len(schedules) and continues stepping live from there.
//
// A nil snap recovers from schedules alone (full re-drive). The snapshot
// is rejected — fall back to Resume(spec, opts, nil, schedules) — when it
// reaches past the recovered schedules or does not match the spec's
// controller toggle.
func Resume(spec *Spec, opts Options, snap *Snapshot, schedules []*cluster.Schedule) (*Runtime, error) {
	rt, err := Build(spec, opts)
	if err != nil {
		return nil, err
	}
	if len(schedules) > spec.Iterations {
		return nil, fmt.Errorf("scenario %s: %d recovered schedules exceed the %d-iteration budget", spec.Name, len(schedules), spec.Iterations)
	}
	cursor := 0
	if snap != nil {
		if snap.Cursor != len(snap.Iterations) {
			return nil, fmt.Errorf("scenario %s: snapshot cursor %d != %d recorded iterations", spec.Name, snap.Cursor, len(snap.Iterations))
		}
		if snap.Cursor > len(schedules) {
			return nil, fmt.Errorf("scenario %s: snapshot cursor %d reaches past the %d recovered schedules", spec.Name, snap.Cursor, len(schedules))
		}
		if (snap.Controller != nil) != (rt.controller != nil) {
			return nil, fmt.Errorf("scenario %s: snapshot controller state does not match the spec's controller toggle", spec.Name)
		}
		if rt.controller != nil {
			if snap.Controller.Steps != snap.Cursor {
				return nil, fmt.Errorf("scenario %s: snapshot controller ran %d steps, cursor is %d", spec.Name, snap.Controller.Steps, snap.Cursor)
			}
			if err := rt.controller.Restore(snap.Controller); err != nil {
				return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
			}
		}
		cursor = snap.Cursor
		rt.iterations = append(rt.iterations, snap.Iterations...)
		rt.schedules = append(rt.schedules, schedules[:cursor]...)
	}
	// Re-drive the WAL tail through the same Apply live ticks use: each
	// logged schedule stands in for the observation and everything else
	// (QS evaluation, candidate scoring, controller bookkeeping) is
	// recomputed exactly as the live run did.
	for tick := cursor; tick < len(schedules); tick++ {
		if _, err := rt.Apply(tick, schedules[tick]); err != nil {
			return nil, fmt.Errorf("scenario %s: re-driving tick %d: %w", spec.Name, tick, err)
		}
	}
	return rt, nil
}
