// Package linalg provides the dense linear algebra used as the task
// payload of the paper's experiments: each task ships a matrix to a slave
// which computes its determinant. Determinants are computed by LU
// factorization with partial pivoting.
package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense square row-major matrix.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix allocates an N×N zero matrix.
func NewMatrix(n int) Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: size %d", n))
	}
	return Matrix{N: n, Data: make([]float64, n*n)}
}

// Identity returns the N×N identity.
func Identity(n int) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// RandomMatrix draws entries uniformly from [-1, 1).
func RandomMatrix(rng *rand.Rand, n int) Matrix {
	m := NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(rng.Float64())*2 - 1
	}
	return m
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone deep-copies the matrix.
func (m Matrix) Clone() Matrix {
	return Matrix{N: m.N, Data: append([]float64(nil), m.Data...)}
}

// Mul returns the matrix product m·other.
func (m Matrix) Mul(other Matrix) Matrix {
	if m.N != other.N {
		panic(fmt.Sprintf("linalg: size mismatch %d vs %d", m.N, other.N))
	}
	out := NewMatrix(m.N)
	for i := 0; i < m.N; i++ {
		for k := 0; k < m.N; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < m.N; j++ {
				out.Data[i*m.N+j] += float64(a * other.At(k, j))
			}
		}
	}
	return out
}

// Det computes the determinant by in-place LU factorization with partial
// pivoting on a copy of the matrix. Singular matrices return 0.
func (m Matrix) Det() float64 {
	n := m.N
	a := m.Clone()
	det := 1.0
	for col := 0; col < n; col++ {
		// Partial pivot: the largest magnitude in this column.
		pivot := col
		best := math.Abs(a.At(col, col))
		for row := col + 1; row < n; row++ {
			if v := math.Abs(a.At(row, col)); v > best {
				pivot, best = row, v
			}
		}
		if best == 0 {
			return 0
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a.Data[col*n+j], a.Data[pivot*n+j] = a.Data[pivot*n+j], a.Data[col*n+j]
			}
			det = -det
		}
		det *= a.At(col, col)
		inv := 1 / a.At(col, col)
		for row := col + 1; row < n; row++ {
			f := a.At(row, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Data[row*n+j] -= float64(f * a.Data[col*n+j])
			}
		}
	}
	return det
}

// DetFlops estimates the floating-point work of Det for an n×n matrix:
// the 2n³/3 leading term of LU factorization. The emulation charges this
// against a slave's speed to derive virtual computation time.
func DetFlops(n int) float64 {
	nf := float64(n)
	return 2 * nf * nf * nf / 3
}

// Bytes returns the wire size of an n×n float64 matrix, used by the
// emulation to derive virtual communication time.
func Bytes(n int) float64 {
	return 8 * float64(n) * float64(n)
}
