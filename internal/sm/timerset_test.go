package sm

import (
	"math/rand"
	"testing"
)

// checkTimerSet asserts the type's invariant — ascending, no name twice — and
// that s holds exactly the timers of model.
func checkTimerSet(t *testing.T, what string, s TimerSet, model map[TimerID]struct{}) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("%s: %v is not strictly ascending", what, s)
		}
	}
	if len(s) != len(model) {
		t.Fatalf("%s: set %v holds %d timers, the model %d", what, s, len(s), len(model))
	}
	for name := range model {
		if !s.Has(name) {
			t.Fatalf("%s: set %v lacks %q", what, s, name)
		}
	}
}

// TestTimerSetAgainstMapModel drives Has and the in-place Add / Remove with
// random names against a plain map.
func TestTimerSetAgainstMapModel(t *testing.T) {
	names := []TimerID{"", "a", "b", "ba", "c", "d", "e", "stabilize", "tick", "zap"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s TimerSet
		model := make(map[TimerID]struct{})
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			if _, pending := model[name]; s.Has(name) != pending {
				t.Fatalf("seed %d step %d: Has(%q) = %v on %v", seed, step, name, !pending, s)
			}
			if rng.Intn(2) == 0 {
				s.Add(name)
				model[name] = struct{}{}
			} else {
				s.Remove(name)
				delete(model, name)
			}
			checkTimerSet(t, "in place", s, model)
		}
	}
}

// TestNewTimerSetNormalises: any argument order, any repetition, one result;
// the arguments are not reordered under the caller.
func TestNewTimerSetNormalises(t *testing.T) {
	in := []TimerID{"tick", "boom", "tick", "zap", "boom"}
	got := NewTimerSet(in...)
	if want := (TimerSet{"boom", "tick", "zap"}); !got.Equal(want) {
		t.Fatalf("NewTimerSet(%v) = %v, want %v", in, got, want)
	}
	if in[0] != "tick" || in[1] != "boom" {
		t.Fatalf("NewTimerSet reordered its arguments: %v", in)
	}
	if empty := NewTimerSet(); len(empty) != 0 || empty.Has("") {
		t.Fatalf("NewTimerSet() = %v, want the empty set", empty)
	}
}
