// Package linalg implements the small dense linear-algebra kernel used by
// Tempo's optimizer: vector arithmetic, matrices, Gaussian elimination with
// partial pivoting, and (regularized) weighted least squares. Problem sizes
// are tiny — the RM configuration space has a handful of parameters per
// tenant and the QS vector a handful of objectives — so simplicity and
// numerical robustness win over asymptotics.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	checkLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) Vector {
	checkLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a*v.
func (v Vector) Scale(a float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// AXPY adds a*w to v in place and returns v.
func (v Vector) AXPY(a float64, w Vector) Vector {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vector) Dist(w Vector) float64 { return v.Sub(w).Norm() }

// Clamp limits every entry of v to [lo, hi] in place and returns v.
func (v Vector) Clamp(lo, hi float64) Vector {
	for i := range v {
		if v[i] < lo {
			v[i] = lo
		} else if v[i] > hi {
			v[i] = hi
		}
	}
	return v
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a vector sharing the matrix's storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v Vector) Vector {
	checkLen(m.Cols, len(v))
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(v)
	}
	return out
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	checkLen(m.Cols, b.Rows)
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Gram returns m·mᵀ, the Gram matrix of the rows of m. For a Jacobian whose
// rows are QS gradients this yields G with G[i][j] = ∇fi·∇fj, the quantity
// PALD's ρ* derivation is built on.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Rows, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := i; j < m.Rows; j++ {
			d := ri.Dot(m.Row(j))
			out.Set(i, j, d)
			out.Set(j, i, d)
		}
	}
	return out
}

// Solve solves a·x = b by Gaussian elimination with partial pivoting.
// a must be square; it is not modified.
func Solve(a *Matrix, b Vector) (Vector, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Solve wants square matrix, got %dx%d", a.Rows, a.Cols)
	}
	checkLen(a.Rows, len(b))
	n := a.Rows
	m := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot: largest absolute value in the column.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m.At(r, c) * x[c]
		}
		x[r] = s / m.At(r, r)
	}
	return x, nil
}

// LeastSquares solves min_x ||a·x - b||² via the normal equations with a
// small Tikhonov ridge term lambda ≥ 0 on the diagonal, which keeps the
// system well-posed when rows of a are nearly collinear (common when the
// optimizer's sample cloud is thin in some directions).
func LeastSquares(a *Matrix, b Vector, lambda float64) (Vector, error) {
	checkLen(a.Rows, len(b))
	at := a.Transpose()
	ata := at.Mul(a)
	for i := 0; i < ata.Rows; i++ {
		ata.Set(i, i, ata.At(i, i)+lambda)
	}
	atb := at.MulVec(b)
	return Solve(ata, atb)
}

// WeightedLeastSquares solves min_x Σ w_i (a_i·x - b_i)² with ridge lambda.
// Weights must be nonnegative; rows with zero weight are ignored.
func WeightedLeastSquares(a *Matrix, b, w Vector, lambda float64) (Vector, error) {
	checkLen(a.Rows, len(b))
	checkLen(a.Rows, len(w))
	scaled := NewMatrix(a.Rows, a.Cols)
	sb := NewVector(a.Rows)
	for i := 0; i < a.Rows; i++ {
		if w[i] < 0 {
			return nil, fmt.Errorf("linalg: negative weight %g at row %d", w[i], i)
		}
		s := math.Sqrt(w[i])
		row := a.Row(i)
		dst := scaled.Row(i)
		for j := range row {
			dst[j] = s * row[j]
		}
		sb[i] = s * b[i]
	}
	return LeastSquares(scaled, sb, lambda)
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("linalg: dimension mismatch %d vs %d", a, b))
	}
}
