package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSimple(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	x, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if !AlmostEqual(x, math.Sqrt2, 1e-10) {
		t.Fatalf("Bisect got %v want %v", x, math.Sqrt2)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-12); err != nil || x != 0 {
		t.Fatalf("root at left endpoint: x=%v err=%v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-12); err != nil || x != 0 {
		t.Fatalf("root at right endpoint: x=%v err=%v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12); err == nil {
		t.Fatal("expected ErrNoBracket")
	}
}

func TestBrentAgainstKnownRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosx-x", func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x, err := Brent(c.f, c.a, c.b, 1e-13)
			if err != nil {
				t.Fatalf("Brent: %v", err)
			}
			if !AlmostEqual(x, c.want, 1e-9) {
				t.Fatalf("got %v want %v", x, c.want)
			}
		})
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	// Property: for random monotone quadratics with a bracketed root,
	// Brent and Bisect agree.
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed uint32) bool {
		c := 0.1 + float64(seed%1000)/100 // root at sqrt(c)
		f := func(x float64) float64 { return x*x - c }
		hi := math.Sqrt(c) + 1
		xb, err1 := Bisect(f, 0, hi, 1e-12)
		xr, err2 := Brent(f, 0, hi, 1e-12)
		return err1 == nil && err2 == nil && AlmostEqual(xb, xr, 1e-8)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenMin(t *testing.T) {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	x := GoldenMin(f, 0, 10, 1e-10)
	if !AlmostEqual(x, 3, 1e-7) {
		t.Fatalf("GoldenMin got %v want 3", x)
	}
	// Reversed interval order must still work.
	x = GoldenMin(f, 10, 0, 1e-10)
	if !AlmostEqual(x, 3, 1e-7) {
		t.Fatalf("GoldenMin reversed got %v want 3", x)
	}
}

func TestGridMinNonUnimodalRobustness(t *testing.T) {
	// Two local minima; global at x=8 with value -2.
	f := func(x float64) float64 {
		return math.Min((x-2)*(x-2)-1, (x-8)*(x-8)-2)
	}
	x := GridMin(f, 0, 10, 50, 1e-9)
	if !AlmostEqual(x, 8, 1e-5) {
		t.Fatalf("GridMin got %v want 8", x)
	}
}
