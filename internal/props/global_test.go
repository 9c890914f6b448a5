package props

import (
	"reflect"
	"testing"
)

func TestGlobalSetCheckAndMerge(t *testing.T) {
	pairDiffer := GlobalProperty{
		Name: "PairValsEqual",
		Check: func(v GlobalView) bool {
			a, b := v.Get(1), v.Get(2)
			if a == nil || b == nil {
				return true // partial view: no false positive
			}
			return a.Svc.(*fakeSvc).val == b.Svc.(*fakeSvc).val
		},
	}
	always := GlobalProperty{
		Name:  "Always",
		Check: func(GlobalView) bool { return true },
	}
	set := GlobalSet{always, pairDiffer}

	v := NewView()
	v.Add(1, &fakeSvc{self: 1, val: 3}, nil)
	g := Global(v)
	if got := set.AppendViolated(nil, g); got != nil {
		t.Fatalf("partial view violated %v", got)
	}

	v.Add(2, &fakeSvc{self: 2, val: 4}, nil)
	if got := set.AppendViolated(nil, g); !reflect.DeepEqual(got, []string{"PairValsEqual"}) {
		t.Fatalf("AppendViolated = %v", got)
	}

	// AppendViolated merges into an existing local-violation slice and
	// leaves dst untouched when everything holds.
	local := []string{"LocalProp"}
	got := set.AppendViolated(local, g)
	if !reflect.DeepEqual(got, []string{"LocalProp", "PairValsEqual"}) {
		t.Fatalf("AppendViolated = %v", got)
	}
	clean := GlobalSet{always}
	if out := clean.AppendViolated(local, g); len(out) != 1 || &out[0] != &local[0] {
		t.Fatalf("clean AppendViolated should return dst unchanged, got %v", out)
	}
}
