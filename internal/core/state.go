package core

import (
	"errors"
	"fmt"

	"tempo/internal/cluster"
	"tempo/internal/linalg"
	"tempo/internal/pald"
)

// Durable control-loop state. The serving layer (internal/store via
// internal/service) snapshots hosted clusters periodically so a crashed
// tempod recovers them to byte-identical trajectories; the controller's
// share of that state is everything Apply consults besides its immutable
// wiring: the current/previous configurations, the regression-guard
// memory, the ratcheted targets, the normalization scales frozen at first
// observation, the count of applied iterations, and the optimizer's
// sample cloud + RNG position. No per-iteration record is part of it (the
// controller keeps none), so past the optimizer's sample cap it does not
// grow with iterations.

// ControllerState is the serializable snapshot of a Controller. The
// store's snapshot codec writes every float64 field as its bit pattern,
// so a restored controller continues bit-for-bit. (The json tags serve
// tests and tooling; finite floats survive encoding/json too, through its
// shortest round-trip formatting.)
type ControllerState struct {
	Current      cluster.Config `json:"current"`
	CurrentX     []float64      `json:"current_x"`
	PrevConfig   cluster.Config `json:"prev_config"`
	PrevObserved []float64      `json:"prev_observed,omitempty"`
	HasPrev      bool           `json:"has_prev"`
	Targets      []pald.Target  `json:"targets"`
	Scales       []float64      `json:"scales,omitempty"`
	Steps        int            `json:"steps"`
	Optimizer    *pald.State    `json:"optimizer"`
}

// ErrUnsnapshotable marks a controller whose optimizer strategy does not
// support state capture (custom Strategy implementations from the
// experiment harness). The serving layer only ever builds the default
// PALD optimizer, which does.
var ErrUnsnapshotable = errors.New("core: controller strategy does not support snapshots")

// Snapshot captures the controller's durable state. It fails with
// ErrUnsnapshotable when the controller runs a custom Strategy instead of
// the default PALD optimizer. The result shares no memory with the
// controller.
func (c *Controller) Snapshot() (*ControllerState, error) {
	opt, ok := c.strategy.(*pald.Optimizer)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnsnapshotable, c.strategy.Name())
	}
	st := &ControllerState{
		Current:      c.current.Clone(),
		CurrentX:     append([]float64(nil), c.currentX...),
		PrevConfig:   c.prevConfig.Clone(),
		PrevObserved: append([]float64(nil), c.prevObserved...),
		HasPrev:      c.hasPrev,
		Targets:      append([]pald.Target(nil), c.targets...),
		Scales:       append([]float64(nil), c.scales...),
		Steps:        c.steps,
		Optimizer:    opt.State(),
	}
	return st, nil
}

// Restore rewinds a freshly constructed controller to a captured state.
// The controller must have been built with the same Config (space,
// templates, PALD seed) as the one that produced the state — exactly what
// rebuilding from the same scenario spec guarantees. After Restore, Apply
// on the schedules the original run observed continues its trajectory
// bit-for-bit.
func (c *Controller) Restore(st *ControllerState) error {
	if st == nil {
		return errors.New("core: nil controller state")
	}
	opt, ok := c.strategy.(*pald.Optimizer)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnsnapshotable, c.strategy.Name())
	}
	if len(st.Targets) != len(c.cfg.Templates) {
		return fmt.Errorf("core: state has %d targets, controller has %d templates", len(st.Targets), len(c.cfg.Templates))
	}
	if len(st.CurrentX) != c.cfg.Space.Dim() {
		return fmt.Errorf("core: state configuration dim %d != space dim %d", len(st.CurrentX), c.cfg.Space.Dim())
	}
	if err := st.Current.Validate(); err != nil {
		return fmt.Errorf("core: state current config: %w", err)
	}
	// Scales and the previous observation are per-template vectors that
	// Apply indexes by template; each is empty or one entry per template.
	k := len(c.cfg.Templates)
	if n := len(st.Scales); n != 0 && n != k {
		return fmt.Errorf("core: state has %d scales, controller has %d templates", n, k)
	}
	if n := len(st.PrevObserved); n != 0 && n != k {
		return fmt.Errorf("core: state has %d previous observations, controller has %d templates", n, k)
	}
	if st.HasPrev != (len(st.PrevObserved) > 0) {
		return fmt.Errorf("core: state has_prev %v with %d previous observations", st.HasPrev, len(st.PrevObserved))
	}
	if st.HasPrev {
		if err := st.PrevConfig.Validate(); err != nil {
			return fmt.Errorf("core: state previous config: %w", err)
		}
	}
	if st.Optimizer == nil {
		return errors.New("core: state missing optimizer")
	}
	if err := opt.Restore(st.Optimizer); err != nil {
		return err
	}
	c.current = st.Current.Clone()
	c.currentX = linalg.Vector(append([]float64(nil), st.CurrentX...))
	c.prevConfig = st.PrevConfig.Clone()
	c.prevObserved = append([]float64(nil), st.PrevObserved...)
	if len(st.PrevObserved) == 0 {
		c.prevObserved = nil
	}
	c.hasPrev = st.HasPrev
	c.targets = append([]pald.Target(nil), st.Targets...)
	c.scales = append([]float64(nil), st.Scales...)
	if len(st.Scales) == 0 {
		// nil means "freeze scales at the next observation" — preserve that
		// distinction for snapshots taken before the first Apply.
		c.scales = nil
	}
	c.steps = st.Steps
	return nil
}
