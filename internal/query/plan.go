// Package query is tempod's ad-hoc metric query layer: a small composable
// operator algebra (filter / map / group_by / window / aggregate / limit)
// over each control interval's observed schedule, with incremental
// evaluation — a standing query advances O(one tick's records) per control
// interval instead of rescanning history.
//
// Queries arrive as a versioned JSON plan (see Plan), are validated and
// depth/cardinality-bounded up front, and compile to a Runner that is fed
// one observed schedule per completed control interval. The same Runner
// serves both evaluation modes the service exposes: one-shot (push every
// completed tick, read Result) and standing subscriptions (push each tick
// as it commits; PushTick returns exactly the result rows that tick
// changed, which the service streams to clients over SSE). The two modes
// agree by construction: a client that applies a subscription's per-tick
// deltas last-write-wins ends with the one-shot result.
//
// Three relations are served from a schedule: "jobs" and "tasks" are its
// record slices (cluster.Schedule.Jobs / Tasks) in record order, read in
// place; "events" is its canonical event stream (cluster.Schedule.Events),
// the only source that derives one. The aggregate operator has two
// families: generic reductions (count, sum, avg, min, max,
// p50/p90/p95/p99) over any numeric column, and a "slos" family that
// evaluates qs.Template vectors through a per-tick qs.Accumulate — which
// is how qs.EvalStream itself is re-expressed as a plan, bit-identically
// to the oracle (TestQueryVsOracleGoldens).
package query

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"tempo/internal/qs"
)

// Version is the query API version this package implements. Plans must
// declare it; unknown versions are rejected up front so a future v2 can
// change semantics without silently reinterpreting old plans.
const Version = 1

// Validation bounds. Plans are untrusted input on a serving path, so
// every dimension a client controls is capped before compilation.
const (
	// MaxOps bounds the operator pipeline depth.
	MaxOps = 16
	// MaxAggs bounds the aggregate expressions of one aggregate operator.
	MaxAggs = 32
	// MaxSLOs bounds the qs.Template list of an slos aggregate. Sized to
	// clear the stress-1000 tier's per-tenant SLO sets with headroom.
	MaxSLOs = 8192
	// MaxIn bounds a filter's "in" membership list.
	MaxIn = 64
	// MaxGroupKeys bounds group_by's key columns.
	MaxGroupKeys = 4
	// DefaultMaxGroups bounds the distinct (window, group) cells a runner
	// will materialize before PushTick fails; see Runner.MaxGroups.
	DefaultMaxGroups = 10000
	// MaxLimit bounds limit.n.
	MaxLimit = 1 << 20
)

// Plan is the JSON wire form of one query.
//
// Grammar (version 1):
//
//	{
//	  "version": 1,
//	  "source": "events" | "jobs" | "tasks",
//	  "from": "30m",            // optional session-time window over rows
//	  "to":   "2h",             // optional; absent = unbounded
//	  "ops": [
//	    {"op":"filter", "field":"tenant", "eq":"etl"},
//	    {"op":"filter", "field":"time", "ge":"30m", "lt":"90m"},
//	    {"op":"map", "fields":["tenant","response_seconds"]},
//	    {"op":"group_by", "by":["tenant"]},
//	    {"op":"window", "size":"30m"},      // or "tick"
//	    {"op":"aggregate",
//	     "aggs":[{"fn":"p99","field":"response_seconds","as":"p99_response"}]},
//	    {"op":"limit", "n":100}
//	  ]
//	}
//
// Filter comparator operands are strings; against numeric columns they
// parse as a Go duration ("30m" = 1800 seconds) or a plain number.
// The slos aggregate form replaces "aggs" with "slos", a qs.Template
// list, and evaluates the QS vector per control interval. It reads the
// schedule's records whatever the source, so any source gives the same
// rows.
type Plan struct {
	Version int      `json:"version"`
	Source  string   `json:"source"`
	From    string   `json:"from,omitempty"`
	To      string   `json:"to,omitempty"`
	Ops     []OpSpec `json:"ops,omitempty"`
}

// OpSpec is one operator of a plan's pipeline, discriminated by Op. Only
// the fields of the selected operator may be set; the validator rejects
// stray ones so typos fail loudly instead of silently changing semantics.
type OpSpec struct {
	Op string `json:"op"`

	// filter
	Field string   `json:"field,omitempty"`
	Eq    *string  `json:"eq,omitempty"`
	In    []string `json:"in,omitempty"`
	Ge    *string  `json:"ge,omitempty"`
	Gt    *string  `json:"gt,omitempty"`
	Le    *string  `json:"le,omitempty"`
	Lt    *string  `json:"lt,omitempty"`

	// map
	Fields []string `json:"fields,omitempty"`

	// group_by
	By []string `json:"by,omitempty"`

	// window
	Size string `json:"size,omitempty"`

	// aggregate
	Aggs []AggSpec     `json:"aggs,omitempty"`
	SLOs []qs.Template `json:"slos,omitempty"`

	// limit
	N int `json:"n,omitempty"`
}

// AggSpec is one generic aggregate expression.
type AggSpec struct {
	// Fn is the reduction: count, sum, avg, min, max, p50, p90, p95, p99.
	Fn string `json:"fn"`
	// Field is the numeric input column; count takes none.
	Field string `json:"field,omitempty"`
	// As names the output column; empty defaults to fn or fn_field.
	As string `json:"as,omitempty"`
}

// PlanError is a validation failure. Op is the index of the offending
// operator (-1 for plan-level problems) and OpName its discriminator, so
// rejection messages always name what was wrong and where.
type PlanError struct {
	Op     int
	OpName string
	Msg    string
	// Err is the read or decode failure behind a plan that could not be
	// parsed at all, so callers can tell a cut-off body from a bad plan.
	Err error
}

func (e *PlanError) Unwrap() error { return e.Err }

func (e *PlanError) Error() string {
	if e.Op < 0 {
		return "query: invalid plan: " + e.Msg
	}
	return fmt.Sprintf("query: invalid plan: ops[%d] (%s): %s", e.Op, e.OpName, e.Msg)
}

func planErrf(op int, opName, format string, args ...any) *PlanError {
	return &PlanError{Op: op, OpName: opName, Msg: fmt.Sprintf(format, args...)}
}

// ParsePlan decodes and validates a plan from r. Unknown fields are
// rejected so client typos fail loudly.
func ParsePlan(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, &PlanError{Op: -1, Msg: "decoding plan: " + err.Error(), Err: err}
	}
	if dec.More() {
		return nil, &PlanError{Op: -1, Msg: "trailing data after plan"}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// fieldKind classifies a relation column.
type fieldKind uint8

const (
	kindString fieldKind = iota
	kindNumber
	kindTime // the row's session-time anchor; compares like a duration
)

// schema maps column names to kinds and positions. str and num list the
// string and numeric columns in relation order; "time" is implicit.
type schema struct {
	str []string
	num []string
}

func (s *schema) lookup(field string) (fieldKind, int, bool) {
	if field == "time" {
		return kindTime, 0, true
	}
	for i, n := range s.str {
		if n == field {
			return kindString, i, true
		}
	}
	for i, n := range s.num {
		if n == field {
			return kindNumber, i, true
		}
	}
	return 0, 0, false
}

func (s *schema) names() []string {
	out := make([]string, 0, 1+len(s.str)+len(s.num))
	out = append(out, "time")
	out = append(out, s.str...)
	out = append(out, s.num...)
	return out
}

// The source relations and their schemas. Numeric time-like columns are
// seconds; "time" is the row's session-time anchor (event time, job
// submit, task start — offset by tick × interval).
var sourceSchemas = map[string]*schema{
	"events": {
		str: []string{"kind", "tenant", "job", "task_kind", "outcome"},
		num: []string{"delta", "attempt", "deadline_seconds", "completed", "killed"},
	},
	"jobs": {
		str: []string{"tenant"},
		num: []string{"submit_seconds", "finish_seconds", "response_seconds", "deadline_seconds", "completed"},
	},
	"tasks": {
		str: []string{"tenant", "task_kind", "outcome"},
		num: []string{"start_seconds", "end_seconds", "duration_seconds"},
	},
}

// sourceNames lists the valid sources in a fixed order for error text.
var sourceNames = []string{"events", "jobs", "tasks"}

// parseOperand parses one comparator operand against a numeric or time
// column: a Go duration string (seconds) or a plain number.
func parseOperand(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("operand %q is neither a duration nor a number", s)
	}
	return f, nil
}

// parseBound parses a plan-level window bound ("" = unset).
func parseBound(s string) (time.Duration, bool, error) {
	if s == "" {
		return 0, false, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, false, err
	}
	return d, true, nil
}

// Validate checks the plan against the version-1 grammar and its bounds.
// It is the complete admission check: a plan that validates compiles.
func (p *Plan) Validate() error {
	if p.Version != Version {
		return &PlanError{Op: -1, Msg: fmt.Sprintf("unsupported version %d (this tempod speaks version %d)", p.Version, Version)}
	}
	sch, ok := sourceSchemas[p.Source]
	if !ok {
		return &PlanError{Op: -1, Msg: fmt.Sprintf("unknown source %q (want one of %v)", p.Source, sourceNames)}
	}
	from, hasFrom, err := parseBound(p.From)
	if err != nil {
		return &PlanError{Op: -1, Msg: "malformed from: " + err.Error()}
	}
	to, hasTo, err := parseBound(p.To)
	if err != nil {
		return &PlanError{Op: -1, Msg: "malformed to: " + err.Error()}
	}
	if (hasFrom && from < 0) || (hasTo && to < 0) {
		return &PlanError{Op: -1, Msg: "window bounds must be non-negative; windows are half-open [from, to)"}
	}
	if hasFrom && hasTo && to < from {
		return &PlanError{Op: -1, Msg: fmt.Sprintf("from must not exceed to; windows are half-open [from, to), got [%v, %v)", from, to)}
	}
	if len(p.Ops) > MaxOps {
		return &PlanError{Op: -1, Msg: fmt.Sprintf("%d operators exceed the depth bound %d", len(p.Ops), MaxOps)}
	}

	cur := sch // schema flowing into the next operator
	var sawGroupBy, sawWindow, sawAggregate, sawLimit bool
	groupKeys := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		if sawLimit {
			return planErrf(i, op.Op, "no operator may follow limit")
		}
		switch op.Op {
		case "filter":
			if sawAggregate {
				return planErrf(i, op.Op, "filter must precede aggregate")
			}
			if err := validateFilter(i, op, cur); err != nil {
				return err
			}
		case "map":
			if sawAggregate || sawGroupBy {
				return planErrf(i, op.Op, "map must precede group_by and aggregate")
			}
			if len(op.Fields) == 0 {
				return planErrf(i, op.Op, "map needs at least one field")
			}
			next := &schema{}
			for _, f := range op.Fields {
				kind, _, ok := cur.lookup(f)
				if !ok {
					return planErrf(i, op.Op, "unknown field %q (have %v)", f, cur.names())
				}
				switch kind {
				case kindString:
					next.str = append(next.str, f)
				case kindNumber:
					next.num = append(next.num, f)
				case kindTime:
					// time is implicit on every row; projecting it is a no-op.
				}
			}
			cur = next
		case "group_by":
			if sawGroupBy {
				return planErrf(i, op.Op, "at most one group_by per plan")
			}
			if sawAggregate {
				return planErrf(i, op.Op, "group_by must precede aggregate")
			}
			if len(op.By) == 0 || len(op.By) > MaxGroupKeys {
				return planErrf(i, op.Op, "group_by takes 1..%d key fields, got %d", MaxGroupKeys, len(op.By))
			}
			for _, f := range op.By {
				kind, _, ok := cur.lookup(f)
				if !ok {
					return planErrf(i, op.Op, "unknown field %q (have %v)", f, cur.names())
				}
				if kind != kindString {
					return planErrf(i, op.Op, "group key %q must be a string column", f)
				}
			}
			sawGroupBy = true
			groupKeys = len(op.By)
		case "window":
			if sawWindow {
				return planErrf(i, op.Op, "at most one window per plan")
			}
			if sawAggregate {
				return planErrf(i, op.Op, "window must precede aggregate")
			}
			if op.Size != "tick" {
				d, err := time.ParseDuration(op.Size)
				if err != nil {
					return planErrf(i, op.Op, "size must be \"tick\" or a positive duration, got %q", op.Size)
				}
				if d <= 0 {
					return planErrf(i, op.Op, "size must be positive, got %v", d)
				}
			}
			sawWindow = true
		case "aggregate":
			if sawAggregate {
				return planErrf(i, op.Op, "at most one aggregate per plan")
			}
			if err := validateAggregate(i, op, cur, sawGroupBy, sawWindow, p.Ops); err != nil {
				return err
			}
			sawAggregate = true
		case "limit":
			if op.N < 1 || op.N > MaxLimit {
				return planErrf(i, op.Op, "n must be in [1, %d], got %d", MaxLimit, op.N)
			}
			sawLimit = true
		case "":
			return planErrf(i, "?", "missing op discriminator")
		default:
			return planErrf(i, op.Op, "unknown operator (want filter, map, group_by, window, aggregate, or limit)")
		}
	}
	if sawGroupBy && !sawAggregate {
		return &PlanError{Op: -1, Msg: fmt.Sprintf("group_by over %d keys without an aggregate has no output", groupKeys)}
	}
	return nil
}

// validateFilter checks one filter operator against the flowing schema.
func validateFilter(i int, op *OpSpec, cur *schema) error {
	if op.Field == "" {
		return planErrf(i, op.Op, "filter needs a field")
	}
	kind, _, ok := cur.lookup(op.Field)
	if !ok {
		return planErrf(i, op.Op, "unknown field %q (have %v)", op.Field, cur.names())
	}
	comparators := 0
	if op.Eq != nil {
		comparators++
	}
	if len(op.In) > 0 {
		comparators++
		if len(op.In) > MaxIn {
			return planErrf(i, op.Op, "in list of %d exceeds the bound %d", len(op.In), MaxIn)
		}
		if kind != kindString {
			return planErrf(i, op.Op, "in requires a string column, %q is numeric", op.Field)
		}
	}
	ranged := 0
	for _, c := range []*string{op.Ge, op.Gt, op.Le, op.Lt} {
		if c == nil {
			continue
		}
		ranged++
		if kind == kindString {
			return planErrf(i, op.Op, "range comparators require a numeric column, %q is a string", op.Field)
		}
		if _, err := parseOperand(*c); err != nil {
			return planErrf(i, op.Op, "%s", err.Error())
		}
	}
	if ranged > 0 {
		comparators++
	}
	if comparators == 0 {
		return planErrf(i, op.Op, "filter on %q needs a comparator (eq, in, or ge/gt/le/lt)", op.Field)
	}
	if comparators > 1 {
		return planErrf(i, op.Op, "filter on %q mixes comparator families; use separate filter ops", op.Field)
	}
	if op.Eq != nil && kind != kindString {
		if _, err := parseOperand(*op.Eq); err != nil {
			return planErrf(i, op.Op, "%s", err.Error())
		}
	}
	return nil
}

// aggFns is the generic reduction set. Quantile values are their q.
var aggFns = map[string]float64{
	"count": 0, "sum": 0, "avg": 0, "min": 0, "max": 0,
	"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99,
}

func isQuantile(fn string) bool { return len(fn) > 1 && fn[0] == 'p' }

// validateAggregate checks one aggregate operator (generic or slos form).
func validateAggregate(i int, op *OpSpec, cur *schema, grouped, windowed bool, ops []OpSpec) error {
	if len(op.Aggs) > 0 && len(op.SLOs) > 0 {
		return planErrf(i, op.Op, "aggs and slos are mutually exclusive")
	}
	if len(op.Aggs) == 0 && len(op.SLOs) == 0 {
		return planErrf(i, op.Op, "aggregate needs aggs or slos")
	}
	if len(op.SLOs) > 0 {
		if len(op.SLOs) > MaxSLOs {
			return planErrf(i, op.Op, "%d slos exceed the bound %d", len(op.SLOs), MaxSLOs)
		}
		if grouped {
			return planErrf(i, op.Op, "slos aggregate does not compose with group_by; each slo already names its queue")
		}
		for j := range ops[:i] {
			if ops[j].Op == "filter" || ops[j].Op == "map" {
				return planErrf(i, op.Op, "slos aggregate does not compose with %s; the accumulator must observe the whole schedule", ops[j].Op)
			}
		}
		if windowed {
			for j := range ops[:i] {
				if ops[j].Op == "window" && ops[j].Size != "tick" {
					return planErrf(i, op.Op, "slos aggregate windows by control interval; use window size \"tick\"")
				}
			}
		}
		for j, t := range op.SLOs {
			if err := t.Validate(); err != nil {
				return planErrf(i, op.Op, "slos[%d]: %s", j, err.Error())
			}
		}
		return nil
	}
	if len(op.Aggs) > MaxAggs {
		return planErrf(i, op.Op, "%d aggs exceed the bound %d", len(op.Aggs), MaxAggs)
	}
	seen := map[string]bool{}
	for j := range op.Aggs {
		a := &op.Aggs[j]
		if _, ok := aggFns[a.Fn]; !ok {
			return planErrf(i, op.Op, "aggs[%d]: unknown fn %q", j, a.Fn)
		}
		if a.Fn == "count" {
			if a.Field != "" {
				return planErrf(i, op.Op, "aggs[%d]: count takes no field", j)
			}
		} else {
			if a.Field == "" {
				return planErrf(i, op.Op, "aggs[%d]: %s needs a numeric field", j, a.Fn)
			}
			kind, _, ok := cur.lookup(a.Field)
			if !ok {
				return planErrf(i, op.Op, "aggs[%d]: unknown field %q (have %v)", j, a.Field, cur.names())
			}
			if kind == kindString {
				return planErrf(i, op.Op, "aggs[%d]: %s requires a numeric field, %q is a string", j, a.Fn, a.Field)
			}
		}
		name := a.outName()
		if seen[name] {
			return planErrf(i, op.Op, "aggs[%d]: duplicate output column %q (disambiguate with \"as\")", j, name)
		}
		seen[name] = true
	}
	return nil
}

// outName is the aggregate's output column name.
func (a *AggSpec) outName() string {
	if a.As != "" {
		return a.As
	}
	if a.Field == "" {
		return a.Fn
	}
	return a.Fn + "_" + a.Field
}
