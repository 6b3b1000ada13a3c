package markov

import (
	"math"
	"testing"
)

func sparseTwoState(a, b float64) *Sparse {
	s := NewSparse(2)
	s.Rows[0] = []Entry{{To: 0, P: 1 - a}, {To: 1, P: a}}
	s.Rows[1] = []Entry{{To: 0, P: b}, {To: 1, P: 1 - b}}
	return s
}

func TestSparseCheckStochastic(t *testing.T) {
	if err := sparseTwoState(0.3, 0.2).CheckStochastic(1e-12); err != nil {
		t.Error(err)
	}
	bad := NewSparse(2)
	bad.Rows[0] = []Entry{{To: 0, P: 0.5}}
	bad.Rows[1] = []Entry{{To: 1, P: 1}}
	if err := bad.CheckStochastic(1e-12); err == nil {
		t.Error("deficient row must fail")
	}
	oor := NewSparse(2)
	oor.Rows[0] = []Entry{{To: 5, P: 1}}
	oor.Rows[1] = []Entry{{To: 1, P: 1}}
	if err := oor.CheckStochastic(1e-12); err == nil {
		t.Error("out-of-range target must fail")
	}
}

func TestSparseDenseAgree(t *testing.T) {
	s := sparseTwoState(0.3, 0.2)
	d := s.Dense()
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			if math.Abs(d.At(x, y)-s.At(x, y)) > 1e-15 {
				t.Fatalf("(%d,%d): dense %g vs sparse %g", x, y, d.At(x, y), s.At(x, y))
			}
		}
	}
}

func TestSparseDenseAccumulatesDuplicates(t *testing.T) {
	s := NewSparse(2)
	s.Rows[0] = []Entry{{To: 0, P: 0.25}, {To: 0, P: 0.25}, {To: 1, P: 0.5}}
	s.Rows[1] = []Entry{{To: 1, P: 1}}
	if err := s.CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
	if got := s.Dense().At(0, 0); got != 0.5 {
		t.Fatalf("accumulated entry = %g, want 0.5", got)
	}
	if got := s.At(0, 0); got != 0.5 {
		t.Fatalf("sparse At accumulated = %g, want 0.5", got)
	}
}

func TestSparseEvolveMatchesDense(t *testing.T) {
	s := sparseTwoState(0.3, 0.2)
	d := s.Dense()
	src := []float64{0.9, 0.1}
	sparse5 := append([]float64(nil), src...)
	next := make([]float64, s.N)
	for k := 0; k < 5; k++ {
		s.Evolve(next, sparse5)
		sparse5, next = next, sparse5
	}
	dense5 := Evolve(d, src, 5)
	if tv := TVDistance(sparse5, dense5); tv > 1e-14 {
		t.Fatalf("sparse vs dense evolution TV = %g", tv)
	}
}

func TestSparseStationaryPower(t *testing.T) {
	s := sparseTwoState(0.3, 0.2)
	pi, err := s.StationaryPower(1e-14, 100000)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := StationaryDirect(s.Dense())
	if err != nil {
		t.Fatal(err)
	}
	if tv := TVDistance(pi, direct); tv > 1e-10 {
		t.Fatalf("sparse power vs direct TV = %g", tv)
	}
}

func TestSparseEvolvePanics(t *testing.T) {
	s := sparseTwoState(0.3, 0.2)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	s.Evolve(make([]float64, 3), make([]float64, 2))
}

func TestNewSparsePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSparse(0) did not panic")
		}
	}()
	NewSparse(0)
}
