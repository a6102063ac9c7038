package query

import (
	"fmt"
	"strings"
	"testing"
)

// TestPlanValidation tables the validator's rejections. Every rejection
// of an operator-level problem must name the offending operator as
// "ops[i] (op)" — that is the contract the service's error envelope
// surfaces to clients.
func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error; "" = plan must validate
	}{
		{"minimal raw", `{"version":1,"source":"events"}`, ""},
		{"full pipeline", `{"version":1,"source":"jobs","from":"10m","to":"2h","ops":[
			{"op":"filter","field":"tenant","eq":"etl"},
			{"op":"map","fields":["tenant","response_seconds"]},
			{"op":"group_by","by":["tenant"]},
			{"op":"window","size":"30m"},
			{"op":"aggregate","aggs":[{"fn":"p99","field":"response_seconds"}]},
			{"op":"limit","n":10}]}`, ""},
		{"slos plan", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","slos":[{"queue":"a","metric":"avg_response_time"}]}]}`, ""},
		{"filter in list", `{"version":1,"source":"tasks","ops":[
			{"op":"filter","field":"outcome","in":["finished","preempted"]}]}`, ""},
		{"filter time range", `{"version":1,"source":"events","ops":[
			{"op":"filter","field":"time","ge":"30m","lt":"1h30m"}]}`, ""},

		{"wrong version", `{"version":2,"source":"events"}`, "unsupported version 2"},
		{"missing version", `{"source":"events"}`, "unsupported version 0"},
		{"unknown source", `{"version":1,"source":"foo"}`, `unknown source "foo"`},
		{"malformed from", `{"version":1,"source":"events","from":"yesterday"}`, "malformed from"},
		{"negative from", `{"version":1,"source":"events","from":"-5m"}`, "non-negative"},
		{"reversed window", `{"version":1,"source":"events","from":"2h","to":"1h"}`, "from must not exceed to"},
		{"unknown json field", `{"version":1,"source":"events","frob":3}`, "unknown field"},
		{"trailing data", `{"version":1,"source":"events"} {}`, "trailing data"},

		{"unknown op", `{"version":1,"source":"events","ops":[{"op":"join"}]}`, "ops[0] (join): unknown operator"},
		{"missing op", `{"version":1,"source":"events","ops":[{"field":"tenant"}]}`, "ops[0] (?): missing op"},

		{"filter without field", `{"version":1,"source":"events","ops":[{"op":"filter","eq":"x"}]}`,
			"ops[0] (filter): filter needs a field"},
		{"filter unknown field", `{"version":1,"source":"events","ops":[{"op":"filter","field":"nope","eq":"x"}]}`,
			`ops[0] (filter): unknown field "nope"`},
		{"filter without comparator", `{"version":1,"source":"events","ops":[{"op":"filter","field":"tenant"}]}`,
			"ops[0] (filter): filter on \"tenant\" needs a comparator"},
		{"filter mixed comparators", `{"version":1,"source":"events","ops":[{"op":"filter","field":"delta","eq":"1","ge":"0"}]}`,
			"ops[0] (filter): filter on \"delta\" mixes comparator families"},
		{"filter range on string", `{"version":1,"source":"events","ops":[{"op":"filter","field":"tenant","ge":"a"}]}`,
			"ops[0] (filter): range comparators require a numeric column"},
		{"filter in on number", `{"version":1,"source":"events","ops":[{"op":"filter","field":"delta","in":["1"]}]}`,
			"ops[0] (filter): in requires a string column"},
		{"filter bad operand", `{"version":1,"source":"events","ops":[{"op":"filter","field":"delta","ge":"soon"}]}`,
			`operand "soon" is neither a duration nor a number`},

		{"map empty", `{"version":1,"source":"events","ops":[{"op":"map","fields":[]}]}`,
			"ops[0] (map): map needs at least one field"},
		{"map unknown field", `{"version":1,"source":"jobs","ops":[{"op":"map","fields":["delta"]}]}`,
			`ops[0] (map): unknown field "delta"`},
		{"map drops field for later filter", `{"version":1,"source":"events","ops":[
			{"op":"map","fields":["tenant"]},{"op":"filter","field":"delta","ge":"0"}]}`,
			`ops[1] (filter): unknown field "delta"`},

		{"group_by empty", `{"version":1,"source":"events","ops":[{"op":"group_by","by":[]}]}`,
			"ops[0] (group_by): group_by takes 1..4 key fields, got 0"},
		{"group_by too many", `{"version":1,"source":"events","ops":[
			{"op":"group_by","by":["tenant","kind","job","task_kind","outcome"]}]}`,
			"ops[0] (group_by): group_by takes 1..4 key fields, got 5"},
		{"group_by numeric key", `{"version":1,"source":"events","ops":[{"op":"group_by","by":["delta"]}]}`,
			`ops[0] (group_by): group key "delta" must be a string column`},
		{"group_by twice", `{"version":1,"source":"events","ops":[
			{"op":"group_by","by":["tenant"]},{"op":"group_by","by":["kind"]}]}`,
			"ops[1] (group_by): at most one group_by per plan"},
		{"group_by without aggregate", `{"version":1,"source":"events","ops":[{"op":"group_by","by":["tenant"]}]}`,
			"group_by over 1 keys without an aggregate"},
		{"map after group_by", `{"version":1,"source":"events","ops":[
			{"op":"group_by","by":["tenant"]},{"op":"map","fields":["tenant"]},
			{"op":"aggregate","aggs":[{"fn":"count"}]}]}`,
			"ops[1] (map): map must precede group_by and aggregate"},

		{"window twice", `{"version":1,"source":"events","ops":[
			{"op":"window","size":"tick"},{"op":"window","size":"1h"}]}`,
			"ops[1] (window): at most one window per plan"},
		{"window bad size", `{"version":1,"source":"events","ops":[{"op":"window","size":"hourly"}]}`,
			`ops[0] (window): size must be "tick" or a positive duration`},
		{"window zero size", `{"version":1,"source":"events","ops":[{"op":"window","size":"0s"}]}`,
			"ops[0] (window): size must be positive"},

		{"aggregate empty", `{"version":1,"source":"events","ops":[{"op":"aggregate"}]}`,
			"ops[0] (aggregate): aggregate needs aggs or slos"},
		{"aggregate both families", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"count"}],"slos":[{"queue":"a","metric":"throughput"}]}]}`,
			"ops[0] (aggregate): aggs and slos are mutually exclusive"},
		{"aggregate twice", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"count"}]},{"op":"aggregate","aggs":[{"fn":"count"}]}]}`,
			"ops[1] (aggregate): at most one aggregate per plan"},
		{"aggregate unknown fn", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"median","field":"delta"}]}]}`,
			`ops[0] (aggregate): aggs[0]: unknown fn "median"`},
		{"count with field", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"count","field":"delta"}]}]}`,
			"ops[0] (aggregate): aggs[0]: count takes no field"},
		{"sum without field", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"sum"}]}]}`,
			"ops[0] (aggregate): aggs[0]: sum needs a numeric field"},
		{"sum on string field", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"sum","field":"tenant"}]}]}`,
			"ops[0] (aggregate): aggs[0]: sum requires a numeric field"},
		{"duplicate output column", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"sum","field":"delta"},{"fn":"sum","field":"delta"}]}]}`,
			`ops[0] (aggregate): aggs[1]: duplicate output column "sum_delta"`},
		{"filter after aggregate", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","aggs":[{"fn":"count"}]},{"op":"filter","field":"tenant","eq":"a"}]}`,
			"ops[1] (filter): filter must precede aggregate"},

		{"slos plan over jobs", `{"version":1,"source":"jobs","ops":[
			{"op":"aggregate","slos":[{"queue":"a","metric":"throughput"}]}]}`, ""},
		{"slos with filter", `{"version":1,"source":"events","ops":[
			{"op":"filter","field":"tenant","eq":"a"},
			{"op":"aggregate","slos":[{"queue":"a","metric":"throughput"}]}]}`,
			"ops[1] (aggregate): slos aggregate does not compose with filter"},
		{"slos with group_by", `{"version":1,"source":"events","ops":[
			{"op":"group_by","by":["tenant"]},
			{"op":"aggregate","slos":[{"queue":"a","metric":"throughput"}]}]}`,
			"ops[1] (aggregate): slos aggregate does not compose with group_by"},
		{"slos with duration window", `{"version":1,"source":"events","ops":[
			{"op":"window","size":"30m"},
			{"op":"aggregate","slos":[{"queue":"a","metric":"throughput"}]}]}`,
			`ops[1] (aggregate): slos aggregate windows by control interval`},
		{"slos invalid template", `{"version":1,"source":"events","ops":[
			{"op":"aggregate","slos":[{"queue":"","metric":"avg_response_time"}]}]}`,
			"ops[0] (aggregate): slos[0]:"},

		{"limit zero", `{"version":1,"source":"events","ops":[{"op":"limit","n":0}]}`,
			"ops[0] (limit): n must be in [1,"},
		{"op after limit", `{"version":1,"source":"events","ops":[
			{"op":"limit","n":5},{"op":"filter","field":"tenant","eq":"a"}]}`,
			"ops[1] (filter): no operator may follow limit"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlan(strings.NewReader(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("plan rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("plan accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestPlanDepthBound locks the operator-count cap.
func TestPlanDepthBound(t *testing.T) {
	p := &Plan{Version: 1, Source: "events"}
	eq := "a"
	for i := 0; i <= MaxOps; i++ {
		p.Ops = append(p.Ops, OpSpec{Op: "filter", Field: "tenant", Eq: &eq})
	}
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "depth bound") {
		t.Fatalf("got %v, want depth-bound rejection", err)
	}
}

// TestPlanCardinalityBounds locks the list-size caps.
func TestPlanCardinalityBounds(t *testing.T) {
	in := make([]string, MaxIn+1)
	p := &Plan{Version: 1, Source: "events", Ops: []OpSpec{{Op: "filter", Field: "tenant", In: in}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the bound") {
		t.Fatalf("in-list bound not enforced: %v", err)
	}

	aggs := make([]AggSpec, MaxAggs+1)
	for i := range aggs {
		aggs[i] = AggSpec{Fn: "count", As: fmt.Sprintf("c%d", i)}
	}
	p = &Plan{Version: 1, Source: "events", Ops: []OpSpec{{Op: "aggregate", Aggs: aggs}}}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "exceed the bound") {
		t.Fatalf("aggs bound not enforced: %v", err)
	}
}
