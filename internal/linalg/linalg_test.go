package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Test-side helpers: the product never builds a matrix from rows or
// compares vectors, but these tests do.

// NormInf returns the maximum absolute entry of v.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether v and w agree entrywise within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// fromRows builds a matrix from row slices, which must have equal lengths.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// TMulVec returns mᵀ·v.
func (m *Matrix) TMulVec(v Vector) Vector {
	checkLen(m.Rows, len(v))
	out := NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := 0; j < m.Cols; j++ {
			out[j] += row[j] * v[i]
		}
	}
	return out
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Add(w); !got.Equal(Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); !got.Equal(Vector{-3, -3, -3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := (Vector{-7, 2}).NormInf(); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	if got := (Vector{0, 0}).Dist(Vector{3, 4}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestVectorAXPYMutates(t *testing.T) {
	v := Vector{1, 1}
	v.AXPY(2, Vector{3, 4})
	if !v.Equal(Vector{7, 9}, 0) {
		t.Errorf("AXPY result %v, want [7 9]", v)
	}
}

func TestVectorClamp(t *testing.T) {
	v := Vector{-1, 0.5, 2}
	v.Clamp(0, 1)
	if !v.Equal(Vector{0, 0.5, 1}, 0) {
		t.Errorf("Clamp = %v", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	mc := m.Clone()
	mc.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Matrix Clone shares storage")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec(Vector{1, 1})
	if !got.Equal(Vector{3, 7, 11}, 0) {
		t.Errorf("MulVec = %v", got)
	}
	gotT := m.TMulVec(Vector{1, 1, 1})
	if !gotT.Equal(Vector{9, 12}, 0) {
		t.Errorf("TMulVec = %v", gotT)
	}
}

func TestMatrixMulAndTranspose(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{0, 1}, {1, 0}})
	got := a.Mul(b)
	want := fromRows([][]float64{{2, 1}, {4, 3}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul = %v", got.Data)
			}
		}
	}
	at := a.Transpose()
	if at.At(0, 1) != 3 || at.At(1, 0) != 2 {
		t.Fatalf("Transpose = %v", at.Data)
	}
}

func TestGramMatrix(t *testing.T) {
	j := fromRows([][]float64{{1, 0}, {1, 1}})
	g := j.Gram()
	want := [][]float64{{1, 1}, {1, 2}}
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			if g.At(i, k) != want[i][k] {
				t.Fatalf("Gram = %v", g.Data)
			}
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := Vector{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{2, 3, -1}, 1e-9) {
		t.Fatalf("Solve = %v, want [2 3 -1]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Vector{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveRequiresSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, Vector{1, 2}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, Vector{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{7, 3}, 1e-12) {
		t.Fatalf("Solve = %v, want [7 3]", x)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: b = a·[1, 2].
	a := fromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	b := Vector{1, 2, 3}
	x, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vector{1, 2}, 1e-9) {
		t.Fatalf("LeastSquares = %v, want [1 2]", x)
	}
}

func TestLeastSquaresRidgeShrinks(t *testing.T) {
	a := fromRows([][]float64{{1}, {1}})
	b := Vector{2, 2}
	x0, err := LeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := LeastSquares(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x0[0]-2) > 1e-9 {
		t.Fatalf("unridged = %v, want 2", x0[0])
	}
	if x1[0] >= x0[0] {
		t.Fatalf("ridge did not shrink: %v >= %v", x1[0], x0[0])
	}
}

func TestWeightedLeastSquaresRespectsWeights(t *testing.T) {
	// Two incompatible observations of a constant; the heavier one wins.
	a := fromRows([][]float64{{1}, {1}})
	b := Vector{0, 10}
	x, err := WeightedLeastSquares(a, b, Vector{1, 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-9) > 1e-9 {
		t.Fatalf("weighted fit = %v, want 9", x[0])
	}
}

func TestWeightedLeastSquaresNegativeWeight(t *testing.T) {
	a := fromRows([][]float64{{1}})
	if _, err := WeightedLeastSquares(a, Vector{1}, Vector{-1}, 0); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched Dot")
		}
	}()
	_ = Vector{1}.Dot(Vector{1, 2})
}

// Property: Solve recovers x from (a, a·x) for random well-conditioned a.
func TestPropertySolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the matrix comfortably nonsingular.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := NewVector(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return got.Equal(want, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Gram matrix is symmetric positive semidefinite
// (xᵀGx = ||Jᵀ... applied... || ≥ 0 for random x).
func TestPropertyGramPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		g := m.Gram()
		for i := 0; i < rows; i++ {
			for j := 0; j < rows; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					return false
				}
			}
		}
		x := NewVector(rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x.Dot(g.MulVec(x)) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: least squares residual is orthogonal to the column space
// (normal equations hold).
func TestPropertyLeastSquaresNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 3 + rng.Intn(5)
		cols := 1 + rng.Intn(3)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := NewVector(rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b, 1e-9)
		if err != nil {
			return true // nearly rank-deficient draw; skip
		}
		resid := a.MulVec(x).Sub(b)
		return a.TMulVec(resid).NormInf() < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
