package eval

import (
	"testing"
	"testing/quick"
)

func TestBootstrapMeanBasic(t *testing.T) {
	values := []float64{4, 5, 6, 5, 4, 6, 5}
	iv := BootstrapMean(values, 2000, 0.95, 1)
	if iv.Point < 4.9 || iv.Point > 5.1 {
		t.Errorf("point %f", iv.Point)
	}
	if iv.Lo > iv.Point || iv.Hi < iv.Point {
		t.Errorf("interval does not contain point: %s", iv)
	}
	if iv.Lo < 4 || iv.Hi > 6 {
		t.Errorf("interval beyond data range: %s", iv)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	values := []float64{2, 4, 8, 16}
	a := BootstrapMean(values, 500, 0.95, 7)
	b := BootstrapMean(values, 500, 0.95, 7)
	if a != b {
		t.Error("nondeterministic for fixed seed")
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	iv := BootstrapMean(nil, 100, 0.95, 1)
	if iv.Point != 0 || iv.Lo != 0 || iv.Hi != 0 {
		t.Errorf("empty input: %+v", iv)
	}
	one := BootstrapMean([]float64{3}, 100, 0.95, 1)
	if one.Point != 3 || one.Lo != 3 || one.Hi != 3 {
		t.Errorf("single value: %+v", one)
	}
	// defaults kick in for bad params
	d := BootstrapMean([]float64{1, 2}, -5, 2.0, 1)
	if d.Level != 0.95 {
		t.Errorf("level default: %+v", d)
	}
}

// Property: Lo <= Point <= Hi and both bounds within [min, max] of the data.
func TestBootstrapBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]float64, len(raw))
		lo, hi := 255.0, 0.0
		for i, b := range raw {
			values[i] = float64(b)
			if values[i] < lo {
				lo = values[i]
			}
			if values[i] > hi {
				hi = values[i]
			}
		}
		iv := BootstrapMean(values, 200, 0.9, 3)
		return iv.Lo >= lo-1e-9 && iv.Hi <= hi+1e-9 && iv.Lo <= iv.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPermutationPValue(t *testing.T) {
	big := []float64{7, 8, 7.5, 8.2, 7.8, 8.1, 7.6, 7.9}
	small := []float64{2, 2.5, 2.2, 2.8, 2.4, 2.6, 2.1, 2.3}
	p := PermutationPValue(big, small, 2000, 1)
	if p > 0.01 {
		t.Errorf("clear separation but p = %f", p)
	}
	// identical distributions: p should be large-ish
	same := []float64{5, 5.1, 4.9, 5.2, 4.8, 5.05, 4.95, 5.15}
	p2 := PermutationPValue(same, same, 2000, 1)
	if p2 < 0.2 {
		t.Errorf("identical groups but p = %f", p2)
	}
	if PermutationPValue(nil, same, 100, 1) != 1 {
		t.Error("empty group should return 1")
	}
}

func TestIntervalString(t *testing.T) {
	iv := Interval{Point: 5.5, Lo: 4.25, Hi: 6.75, Level: 0.95}
	if got := iv.String(); got != "5.50 [4.25, 6.75]" {
		t.Errorf("got %q", got)
	}
}
