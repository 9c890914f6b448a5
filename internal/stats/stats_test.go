package stats

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(0) != 0 || s.Percentile(100) != 0 || s.N() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.N() != 3 || s.Mean() != 2 || s.Percentile(0) != 1 || s.Percentile(100) != 3 {
		t.Fatalf("stats wrong: n=%d mean=%v p0=%v p100=%v", s.N(), s.Mean(), s.Percentile(0), s.Percentile(100))
	}
	s.AddDuration(4 * time.Second)
	if s.Percentile(100) != 4 {
		t.Fatal("AddDuration should record seconds")
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got < 49 || got > 51 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
}

// Property: Percentile never leaves the sorted input's ends and is
// monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(values []float64, a, b uint8) bool {
		if len(values) == 0 {
			return true
		}
		var s Sample
		for _, v := range values {
			s.Add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		if va > vb {
			return false
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		return va >= sorted[0] && vb <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"name", "value"}}
	tab.Add("alpha", 1)
	tab.Add("b", 3.14159)
	tab.Add("c", 250*time.Millisecond)
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "3.14") {
		t.Fatal("float formatting broken")
	}
	if !strings.Contains(out, "250ms") {
		t.Fatal("duration formatting broken")
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1000, time.Second); got != 8000 {
		t.Fatalf("Rate = %v, want 8000 bps", got)
	}
	if got := Rate(100, 0); got != 0 {
		t.Fatal("zero window should yield 0")
	}
}
