package query

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
)

// row is the tuple flowing through a compiled pipeline: a session-time
// anchor plus the string and numeric columns of the stage's schema.
type row struct {
	t   time.Duration
	str []string
	num []float64
}

// ResultRow is one output row, in the JSON shape the service returns.
// Raw (non-aggregated) rows carry Strings/Values keyed by column name and
// a window spanning their tick; aggregate and slos rows carry Group (the
// group_by key, or slo identity) and Values keyed by output column, over
// the window they summarize. WindowToSeconds is -1 for the unbounded
// whole-session window of an un-windowed aggregate.
type ResultRow struct {
	// Tick is the control interval that produced (or last updated) the row.
	Tick int `json:"tick"`
	// TimeSeconds is the row's session-time anchor: the source row's time
	// for raw rows, the window start for aggregate rows.
	TimeSeconds       float64 `json:"time_seconds"`
	WindowFromSeconds float64 `json:"window_from_seconds"`
	WindowToSeconds   float64 `json:"window_to_seconds"`

	Group   map[string]string  `json:"group,omitempty"`
	Strings map[string]string  `json:"strings,omitempty"`
	Values  map[string]float64 `json:"values,omitempty"`
}

// Result is a one-shot query's full answer (or a subscription's current
// snapshot): every row, deterministically ordered — raw rows in stream
// order, aggregate rows by (window, group key).
type Result struct {
	// Ticks counts the control intervals pushed so far.
	Ticks int         `json:"ticks"`
	Rows  []ResultRow `json:"rows"`
	// Truncated reports that a limit operator dropped rows (raw mode) or
	// stopped admitting new groups (aggregate mode).
	Truncated bool `json:"truncated,omitempty"`
}

// Runner modes.
const (
	modeRaw = iota // no aggregate: rows stream through
	modeAgg        // generic aggregate: grouped incremental state
	modeSLO        // slos aggregate: per-tick evaluation of the compiled templates
)

// Window modes.
const (
	winNone = iota // one bucket spanning the whole plan window
	winTick        // one bucket per control interval
	winDur         // fixed-duration buckets
)

// aggExpr is one compiled aggregate expression.
type aggExpr struct {
	fn   string
	q    float64 // quantile rank for pNN fns
	kind fieldKind
	col  int
	name string
}

// cell is one live (window, group) aggregation state.
type cell struct {
	bucket     int64
	bucketFrom time.Duration
	bucketTo   time.Duration // -1 = unbounded
	groupVals  []string
	tick       int // last tick that touched the cell
	touched    int // last tick appended to the runner's touched list; -1 initially
	aggs       []aggState
}

// aggState is one expression's running state in one cell. Quantile
// expressions retain their values (exact quantiles need them); everything
// else folds in arrival order, which is deterministic because every
// source's row order is (record order, or the canonical event order).
type aggState struct {
	count    int
	sum      float64
	min, max float64
	// vals holds a quantile expression's values: vals[:sorted] ascending,
	// then those folded since the cell was last rendered, in arrival order.
	vals   []float64
	sorted int
}

// Runner is a compiled plan plus its incremental evaluation state. Feed
// it completed control intervals in order, and read the full
// deterministic answer with Result at any point. A standing subscription
// feeds each tick with PushTick, which returns only the rows that tick
// produced or updated (the SSE delta); a one-shot query feeds every tick
// with Ingest, which renders nothing, and renders each row once in
// Result. PushTick is Ingest followed by rendering the tick's changed
// rows, so the two modes share one ingest path. A client that applies
// every delta last-write-wins, keyed by (window, group) for aggregate
// rows and by identity for raw rows, ends with exactly Result's rows;
// TestDeltasReplayToOneShot and internal/service's
// TestQueryStreamMatchesOneShot lock this. A Runner is not safe for
// concurrent use; the service gives each subscription its own.
type Runner struct {
	plan     Plan
	interval time.Duration

	from, to       time.Duration
	hasFrom, hasTo bool

	mode   int
	stages []func(*row) bool
	out    *schema // schema flowing out of the pipeline

	// slos mode: the plan's templates, compiled once for every tick
	slos     *qs.Compiled
	sloNames []string

	// aggregate mode
	aggs       []aggExpr
	groupIdx   []int
	groupNames []string
	winMode    int
	winDur     time.Duration
	cells      map[string]*cell
	cellOrder  []*cell

	// maxGroups bounds the distinct (window, group) cells an aggregate
	// materializes; PushTick fails once exceeded. It is DefaultMaxGroups;
	// in-package tests lower it.
	maxGroups int

	limit     int // 0 = none
	done      bool
	truncated bool

	ticks   int
	rawRows []ResultRow // raw + slos modes accumulate emitted rows here

	// Scratch reused across rows and ticks, so that folding a row
	// allocates nothing: src holds the source relation's columns, refilled
	// per record; rw is the row the stages rewrite (a map stage repoints
	// its columns at the stage's own buffers); key is the cell lookup key;
	// touched lists the cells the last Ingest updated; merge is a quantile
	// merge's buffer.
	src, rw row
	key     []byte
	touched []*cell
	merge   []float64

	evbuf cluster.EventBuf // the events source's stream storage
}

// Compile validates the plan and builds a runner for a session with the
// given control interval.
func Compile(p *Plan, interval time.Duration) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if interval <= 0 {
		return nil, fmt.Errorf("query: control interval must be positive, got %v", interval)
	}
	r := &Runner{
		plan:      *p,
		interval:  interval,
		out:       sourceSchemas[p.Source],
		maxGroups: DefaultMaxGroups,
		cells:     map[string]*cell{},
	}
	r.src.str = make([]string, len(r.out.str))
	r.src.num = make([]float64, len(r.out.num))
	r.from, r.hasFrom, _ = parseBound(p.From)
	r.to, r.hasTo, _ = parseBound(p.To)

	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Op {
		case "filter":
			r.stages = append(r.stages, compileFilter(op, r.out))
		case "map":
			st, next := compileMap(op, r.out)
			r.stages = append(r.stages, st)
			r.out = next
		case "group_by":
			r.groupNames = append([]string(nil), op.By...)
			for _, f := range op.By {
				_, idx, _ := r.out.lookup(f)
				r.groupIdx = append(r.groupIdx, idx)
			}
		case "window":
			if op.Size == "tick" {
				r.winMode = winTick
			} else {
				r.winMode = winDur
				r.winDur, _ = time.ParseDuration(op.Size)
			}
		case "aggregate":
			if len(op.SLOs) > 0 {
				r.mode = modeSLO
				r.slos = qs.Compile(op.SLOs)
				for _, t := range op.SLOs {
					r.sloNames = append(r.sloNames, t.Name())
				}
			} else {
				r.mode = modeAgg
				for j := range op.Aggs {
					a := &op.Aggs[j]
					e := aggExpr{fn: a.Fn, q: aggFns[a.Fn], name: a.outName()}
					if a.Field != "" {
						e.kind, e.col, _ = r.out.lookup(a.Field)
					}
					r.aggs = append(r.aggs, e)
				}
			}
		case "limit":
			r.limit = op.N
		}
	}
	return r, nil
}

// compileFilter builds one filter stage against the stage schema sch.
func compileFilter(op *OpSpec, sch *schema) func(*row) bool {
	kind, idx, _ := sch.lookup(op.Field)
	if kind == kindString {
		if op.Eq != nil {
			want := *op.Eq
			return func(r *row) bool { return r.str[idx] == want }
		}
		want := append([]string(nil), op.In...)
		return func(r *row) bool {
			for _, w := range want {
				if r.str[idx] == w {
					return true
				}
			}
			return false
		}
	}
	val := func(r *row) float64 {
		if kind == kindTime {
			return r.t.Seconds()
		}
		return r.num[idx]
	}
	if op.Eq != nil {
		want, _ := parseOperand(*op.Eq)
		return func(r *row) bool { return val(r) == want }
	}
	// Range comparators conjoin.
	type bound struct {
		v  float64
		ok func(have, want float64) bool
	}
	var bounds []bound
	add := func(c *string, ok func(have, want float64) bool) {
		if c == nil {
			return
		}
		v, _ := parseOperand(*c)
		bounds = append(bounds, bound{v, ok})
	}
	add(op.Ge, func(h, w float64) bool { return h >= w })
	add(op.Gt, func(h, w float64) bool { return h > w })
	add(op.Le, func(h, w float64) bool { return h <= w })
	add(op.Lt, func(h, w float64) bool { return h < w })
	return func(r *row) bool {
		h := val(r)
		for _, b := range bounds {
			if !b.ok(h, b.v) {
				return false
			}
		}
		return true
	}
}

// compileMap builds a projection stage and the schema flowing out of it.
func compileMap(op *OpSpec, sch *schema) (func(*row) bool, *schema) {
	next := &schema{}
	var strIdx, numIdx []int
	for _, f := range op.Fields {
		kind, idx, _ := sch.lookup(f)
		switch kind {
		case kindString:
			next.str = append(next.str, f)
			strIdx = append(strIdx, idx)
		case kindNumber:
			next.num = append(next.num, f)
			numIdx = append(numIdx, idx)
		}
	}
	str := make([]string, len(strIdx))
	num := make([]float64, len(numIdx))
	return func(r *row) bool {
		for i, idx := range strIdx {
			str[i] = r.str[idx]
		}
		for i, idx := range numIdx {
			num[i] = r.num[idx]
		}
		r.str, r.num = str, num
		return true
	}, next
}

// Ingest folds one completed control interval's observed schedule into
// the runner's state and renders nothing: aggregate rows are rendered by
// Result (or by PushTick, for the cells the tick changed). Ticks must
// arrive strictly in order starting at 0; sched is the independent
// emulation of session window [tick·interval, (tick+1)·interval) in local
// time. Folding a row into an existing aggregate cell allocates nothing
// beyond a quantile cell's amortised value growth; a new cell allocates
// its key and state once.
func (r *Runner) Ingest(tick int, sched *cluster.Schedule) error {
	r.touched = r.touched[:0]
	if tick != r.ticks {
		return fmt.Errorf("query: ticks must be pushed in order: got %d, want %d", tick, r.ticks)
	}
	r.ticks++
	if sched == nil {
		return fmt.Errorf("query: tick %d has no observed schedule", tick)
	}
	if r.done {
		return nil
	}
	lo := time.Duration(tick) * r.interval
	hi := lo + r.interval
	// A tick wholly outside the plan window contributes nothing; for a
	// bounded "to" every later tick is also outside, so the runner is done.
	if r.hasTo && lo >= r.to {
		r.done = true
		return nil
	}
	if r.hasFrom && hi <= r.from {
		return nil
	}
	if r.mode == modeSLO {
		r.pushSLO(tick, lo, sched)
		return nil
	}
	return r.foldRows(tick, lo, sched)
}

// PushTick feeds one completed control interval, as Ingest does, and
// returns the rows that interval produced or updated.
func (r *Runner) PushTick(tick int, sched *cluster.Schedule) ([]ResultRow, error) {
	n := len(r.rawRows)
	if err := r.Ingest(tick, sched); err != nil {
		return nil, err
	}
	if r.mode != modeAgg {
		// A copy, so the caller cannot change the runner's history.
		return append([]ResultRow(nil), r.rawRows[n:]...), nil
	}
	sortCells(r.touched)
	var out []ResultRow
	for _, c := range r.touched {
		out = append(out, r.cellRow(c))
	}
	return out, nil
}

// pushSLO evaluates the slos aggregate for one tick: the template vector
// over the tick's slice of the plan window, through the same
// qs.ClipWindow Session.QS uses and the set Compile compiled, which
// evaluates as qs.EvalStream does — which is what makes a whole-window
// slos plan bit-identical to the tick's observed vector. The set reads
// sched only during this call.
func (r *Runner) pushSLO(tick int, lo time.Duration, sched *cluster.Schedule) {
	to := r.to
	if !r.hasTo {
		to = math.MaxInt64
	}
	localFrom, localTo, evalTo := qs.ClipWindow(r.from, to, lo, r.interval, sched.Horizon)
	vals := r.slos.Eval(sched, localFrom, evalTo)
	wf := (lo + localFrom).Seconds()
	wt := (lo + localTo).Seconds()
	r.rawRows = slices.Grow(r.rawRows, len(vals))
	for i, v := range vals {
		r.rawRows = append(r.rawRows, ResultRow{
			Tick:              tick,
			TimeSeconds:       wf,
			WindowFromSeconds: wf,
			WindowToSeconds:   wt,
			Group: map[string]string{
				"slo":       r.sloNames[i],
				"slo_index": strconv.Itoa(i),
			},
			Values: map[string]float64{"value": v},
		})
	}
}

// foldRows streams one tick's source rows through the pipeline into
// either raw emission or aggregate cells, listing the cells it updated
// in r.touched.
func (r *Runner) foldRows(tick int, lo time.Duration, sched *cluster.Schedule) error {
	var err error
	r.scan(lo, sched, func(rw *row) bool {
		if r.mode == modeRaw {
			if r.limit > 0 && len(r.rawRows) >= r.limit {
				r.done, r.truncated = true, true
				return false
			}
			r.rawRows = append(r.rawRows, r.rawResultRow(tick, lo, rw))
			return true
		}
		var c *cell
		if c, err = r.cellFor(tick, rw); c == nil {
			// Past the limit's group cap the row is dropped; an error
			// stops the scan.
			return err == nil
		}
		r.fold(c, rw)
		c.tick = tick
		if c.touched != tick {
			c.touched = tick
			r.touched = append(r.touched, c)
		}
		return true
	})
	return err
}

// scan generates the tick's source relation and pipes each row through
// the plan window and compiled stages into sink; sink returning false
// stops the scan. Each record refills r.src, and the stages rewrite
// r.rw, so rows are valid only until sink returns.
func (r *Runner) scan(lo time.Duration, sched *cluster.Schedule, sink func(*row) bool) {
	pipe := func() bool {
		r.rw = r.src
		rw := &r.rw
		if (r.hasFrom && rw.t < r.from) || (r.hasTo && rw.t >= r.to) {
			return true
		}
		for _, st := range r.stages {
			if !st(rw) {
				return true
			}
		}
		return sink(rw)
	}
	switch r.plan.Source {
	case "events":
		evs := sched.AppendEvents(&r.evbuf)
		for i := range evs {
			if eventRow(&r.src, lo, &evs[i]); !pipe() {
				return
			}
		}
	case "jobs":
		for i := range sched.Jobs {
			if jobRow(&r.src, lo, sched.TenantNames, &sched.Jobs[i]); !pipe() {
				return
			}
		}
	case "tasks":
		for i := range sched.Tasks {
			if taskRow(&r.src, lo, sched.TenantNames, &sched.Tasks[i]); !pipe() {
				return
			}
		}
	}
}

// eventRow refills rw with one schedule event in the events relation's
// row shape. String columns follow sourceSchemas["events"].str order,
// numeric ones .num order; columns a kind does not carry are ""/0.
func eventRow(rw *row, lo time.Duration, ev *cluster.Event) {
	taskKind, outcome := "", ""
	switch ev.Kind {
	case cluster.EventTaskStart:
		taskKind = ev.TaskKind.String()
	case cluster.EventTaskEnd:
		taskKind = ev.TaskKind.String()
		outcome = ev.Outcome.String()
	}
	var completed, killed, deadline float64
	switch ev.Kind {
	case cluster.EventJobFinish:
		completed, killed = b2f(ev.Completed), b2f(ev.Killed)
	case cluster.EventJobSubmit:
		deadline = ev.Deadline.Seconds()
	}
	rw.t = lo + ev.Time
	str, num := rw.str, rw.num
	str[0], str[1], str[2], str[3], str[4] = ev.Kind.String(), ev.Tenant, ev.JobID, taskKind, outcome
	num[0], num[1], num[2], num[3], num[4] = float64(ev.Delta), float64(ev.Attempt), deadline, completed, killed
}

// jobRow refills rw with one job record in the jobs relation's row shape;
// tenants is the record's schedule's tenant table.
func jobRow(rw *row, lo time.Duration, tenants []string, j *cluster.JobRecord) {
	rw.t = lo + j.Submit
	rw.str[0] = tenants[j.Tenant]
	num := rw.num
	num[0] = (lo + j.Submit).Seconds()
	num[1] = (lo + j.Finish).Seconds()
	num[2] = (j.Finish - j.Submit).Seconds()
	num[3] = j.Deadline.Seconds()
	num[4] = b2f(j.Completed)
}

// taskRow refills rw with one task attempt in the tasks relation's row
// shape; tenants is the record's schedule's tenant table.
func taskRow(rw *row, lo time.Duration, tenants []string, t *cluster.TaskRecord) {
	rw.t = lo + t.Start
	str, num := rw.str, rw.num
	str[0], str[1], str[2] = tenants[t.Tenant], t.Kind.String(), t.Outcome.String()
	num[0] = (lo + t.Start).Seconds()
	num[1] = (lo + t.End).Seconds()
	num[2] = (t.End - t.Start).Seconds()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// rawResultRow converts a pipeline row to its output shape under the
// pipeline's final schema.
func (r *Runner) rawResultRow(tick int, lo time.Duration, rw *row) ResultRow {
	rr := ResultRow{
		Tick:              tick,
		TimeSeconds:       rw.t.Seconds(),
		WindowFromSeconds: lo.Seconds(),
		WindowToSeconds:   (lo + r.interval).Seconds(),
	}
	if len(r.out.str) > 0 {
		rr.Strings = make(map[string]string, len(r.out.str))
		for i, n := range r.out.str {
			rr.Strings[n] = rw.str[i]
		}
	}
	if len(r.out.num) > 0 {
		rr.Values = make(map[string]float64, len(r.out.num))
		for i, n := range r.out.num {
			rr.Values[n] = rw.num[i]
		}
	}
	return rr
}

// cellFor locates (or admits) the aggregation cell for a row. A nil cell
// with nil error means the row's group fell past the limit's group cap.
func (r *Runner) cellFor(tick int, rw *row) (*cell, error) {
	var bucket int64
	var bFrom, bTo time.Duration
	switch r.winMode {
	case winNone:
		bFrom = 0
		if r.hasFrom {
			bFrom = r.from
		}
		bTo = -1
		if r.hasTo {
			bTo = r.to
		}
	case winTick:
		bucket = int64(tick)
		bFrom = time.Duration(tick) * r.interval
		bTo = bFrom + r.interval
	case winDur:
		bucket = int64(rw.t / r.winDur)
		bFrom = time.Duration(bucket) * r.winDur
		bTo = bFrom + r.winDur
	}
	// The key is the bucket's eight bytes, then each group value behind
	// its length, so distinct (bucket, group) pairs never share a key
	// whatever bytes the values hold.
	key := binary.BigEndian.AppendUint64(r.key[:0], uint64(bucket))
	for _, gi := range r.groupIdx {
		key = binary.AppendUvarint(key, uint64(len(rw.str[gi])))
		key = append(key, rw.str[gi]...)
	}
	r.key = key
	if c, ok := r.cells[string(key)]; ok {
		return c, nil
	}
	if r.limit > 0 && len(r.cellOrder) >= r.limit {
		// limit after aggregate caps distinct groups, first-seen wins; the
		// sources' fixed row order makes "first-seen" deterministic.
		r.truncated = true
		return nil, nil
	}
	if len(r.cellOrder) >= r.maxGroups {
		return nil, fmt.Errorf("query: result exceeds %d distinct (window, group) cells; narrow the plan", r.maxGroups)
	}
	groupVals := make([]string, len(r.groupIdx))
	for i, gi := range r.groupIdx {
		groupVals[i] = rw.str[gi]
	}
	c := &cell{
		bucket:     bucket,
		bucketFrom: bFrom,
		bucketTo:   bTo,
		groupVals:  groupVals,
		touched:    -1,
		aggs:       make([]aggState, len(r.aggs)),
	}
	r.cells[string(key)] = c
	r.cellOrder = append(r.cellOrder, c)
	return c, nil
}

// fold updates a cell's aggregate states with one row.
func (r *Runner) fold(c *cell, rw *row) {
	for i := range r.aggs {
		e := &r.aggs[i]
		st := &c.aggs[i]
		var v float64
		if e.fn != "count" {
			if e.kind == kindTime {
				v = rw.t.Seconds()
			} else {
				v = rw.num[e.col]
			}
		}
		if st.count == 0 {
			st.min, st.max = v, v
		} else {
			if v < st.min {
				st.min = v
			}
			if v > st.max {
				st.max = v
			}
		}
		st.count++
		st.sum += v
		if e.q > 0 {
			st.vals = append(st.vals, v)
		}
	}
}

// cellRow renders a cell's current state as an output row.
func (r *Runner) cellRow(c *cell) ResultRow {
	rr := ResultRow{
		Tick:              c.tick,
		TimeSeconds:       c.bucketFrom.Seconds(),
		WindowFromSeconds: c.bucketFrom.Seconds(),
		WindowToSeconds:   c.bucketTo.Seconds(),
		Values:            make(map[string]float64, len(r.aggs)),
	}
	if c.bucketTo < 0 {
		rr.WindowToSeconds = -1
	}
	if len(r.groupNames) > 0 {
		rr.Group = make(map[string]string, len(r.groupNames))
		for i, n := range r.groupNames {
			rr.Group[n] = c.groupVals[i]
		}
	}
	for i := range r.aggs {
		e := &r.aggs[i]
		st := &c.aggs[i]
		rr.Values[e.name] = r.evalAgg(e, st)
	}
	return rr
}

// evalAgg computes one expression's current value.
func (r *Runner) evalAgg(e *aggExpr, st *aggState) float64 {
	switch e.fn {
	case "count":
		return float64(st.count)
	case "sum":
		return st.sum
	case "avg":
		return st.sum / float64(st.count)
	case "min":
		return st.min
	case "max":
		return st.max
	}
	// Exact nearest-rank quantile over the retained values.
	r.settle(st)
	idx := int(math.Ceil(float64(len(st.vals))*e.q)) - 1
	return st.vals[max(0, min(idx, len(st.vals)-1))]
}

// settle sorts the values folded since st was last rendered and merges
// them into its sorted prefix: O(k log k + n) for k new of n values,
// where re-sorting the history cost O(n log n) on every render. The
// order is sort.Float64s', so the nearest-rank read is the value a copy
// of the history sorted whole holds at that index: values that compare
// equal differ in bits only as ±0 or NaN payloads, and no relation
// column produces either.
func (r *Runner) settle(st *aggState) {
	n, m := len(st.vals), st.sorted
	if m == n {
		return
	}
	batch := st.vals[m:]
	slices.Sort(batch)
	if m > 0 && cmp.Less(batch[0], st.vals[m-1]) {
		// Merge from the back, so the prefix moves at most once.
		b := append(r.merge[:0], batch...)
		r.merge = b
		i, j := m-1, len(b)-1
		for k := n - 1; j >= 0; k-- {
			if i >= 0 && cmp.Less(b[j], st.vals[i]) {
				st.vals[k] = st.vals[i]
				i--
			} else {
				st.vals[k] = b[j]
				j--
			}
		}
	}
	st.sorted = n
}

// sortCells orders cells by (window start, bucket id, group key) — the
// canonical output order.
func sortCells(cs []*cell) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.bucketFrom != b.bucketFrom {
			return a.bucketFrom < b.bucketFrom
		}
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		for k := range a.groupVals {
			if k >= len(b.groupVals) {
				break
			}
			if a.groupVals[k] != b.groupVals[k] {
				return a.groupVals[k] < b.groupVals[k]
			}
		}
		return false
	})
}

// Result snapshots the query's full answer over everything pushed so far.
func (r *Runner) Result() *Result {
	res := &Result{Ticks: r.ticks, Truncated: r.truncated}
	if r.mode == modeAgg {
		cells := append([]*cell(nil), r.cellOrder...)
		sortCells(cells)
		res.Rows = make([]ResultRow, 0, len(cells))
		for _, c := range cells {
			res.Rows = append(res.Rows, r.cellRow(c))
		}
		return res
	}
	res.Rows = append([]ResultRow(nil), r.rawRows...)
	return res
}
