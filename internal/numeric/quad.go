// Package numeric implements exact arithmetic over real quadratic fields
// Q[√d]: numbers of the form a + b√d with a, b rational and d a fixed
// square-free positive integer.
//
// The nine lower-bound proofs of Pineau, Robert and Vivien involve the
// irrationals √2, √3, √7 and √13. Verifying the proofs' case analyses with
// floating point would leave every comparison open to rounding doubt, so
// this package provides exact field operations and, crucially, an exact
// sign/comparison primitive. Each proof stays within a single quadratic
// field, which Q[√d] captures without needing a general algebraic-number
// tower.
package numeric

import (
	"fmt"
	"math"
	"math/big"
)

// Quad is an immutable exact value a + b·√d. The zero value is not valid;
// use New, FromInt or FromRat. Two Quad values may only be combined when
// they share the same d (or when either has b = 0, in which case it is
// promoted to the other operand's field).
type Quad struct {
	a, b *big.Rat
	d    int64
}

// New returns a + b·√d. d must be positive and must not be a perfect
// square (d = 1 would alias rationals; use FromRat for pure rationals,
// which carry d = 0 and combine with any field).
func New(a, b *big.Rat, d int64) Quad {
	if d <= 1 {
		panic(fmt.Sprintf("numeric: invalid radicand %d", d))
	}
	if r := int64(math.Sqrt(float64(d))); r*r == d || (r+1)*(r+1) == d {
		panic(fmt.Sprintf("numeric: radicand %d is a perfect square", d))
	}
	q := Quad{a: new(big.Rat).Set(a), b: new(big.Rat).Set(b), d: d}
	if q.b.Sign() == 0 {
		q.d = 0 // pure rational: field-agnostic
	}
	return q
}

// FromRat returns the pure rational r as a Quad that combines with any
// quadratic field.
func FromRat(r *big.Rat) Quad {
	return Quad{a: new(big.Rat).Set(r), b: new(big.Rat), d: 0}
}

// FromInt returns the integer n as a field-agnostic Quad.
func FromInt(n int64) Quad {
	return FromRat(new(big.Rat).SetInt64(n))
}

// Frac returns the rational p/q as a field-agnostic Quad.
func Frac(p, q int64) Quad {
	if q == 0 {
		panic("numeric: zero denominator")
	}
	return FromRat(big.NewRat(p, q))
}

// Sqrt returns √d as an exact Quad.
func Sqrt(d int64) Quad {
	return New(new(big.Rat), big.NewRat(1, 1), d)
}

// SqrtScaled returns (p/q)·√d.
func SqrtScaled(p, q, d int64) Quad {
	if q == 0 {
		panic("numeric: zero denominator")
	}
	return New(new(big.Rat), big.NewRat(p, q), d)
}

// RatPart returns a copy of the rational coefficient a.
func (x Quad) RatPart() *big.Rat { return new(big.Rat).Set(x.a) }

// RadPart returns a copy of the radical coefficient b.
func (x Quad) RadPart() *big.Rat { return new(big.Rat).Set(x.b) }

// Radicand returns d, or 0 for a pure rational.
func (x Quad) Radicand() int64 { return x.d }

// IsRational reports whether the value has no radical component.
func (x Quad) IsRational() bool { return x.d == 0 }

// mergeField returns the common radicand of x and y, panicking if the two
// values live in distinct genuine quadratic fields.
func mergeField(x, y Quad) int64 {
	switch {
	case x.d == 0:
		return y.d
	case y.d == 0 || x.d == y.d:
		return x.d
	default:
		panic(fmt.Sprintf("numeric: mixing Q[√%d] and Q[√%d]", x.d, y.d))
	}
}

// normalize clears the field tag when the radical coefficient vanished.
func (x Quad) normalize() Quad {
	if x.b.Sign() == 0 {
		x.d = 0
	}
	return x
}

// Add returns x + y.
func (x Quad) Add(y Quad) Quad {
	d := mergeField(x, y)
	return Quad{
		a: new(big.Rat).Add(x.a, y.a),
		b: new(big.Rat).Add(x.b, y.b),
		d: d,
	}.normalize()
}

// Sub returns x − y.
func (x Quad) Sub(y Quad) Quad {
	d := mergeField(x, y)
	return Quad{
		a: new(big.Rat).Sub(x.a, y.a),
		b: new(big.Rat).Sub(x.b, y.b),
		d: d,
	}.normalize()
}

// Neg returns −x.
func (x Quad) Neg() Quad {
	return Quad{a: new(big.Rat).Neg(x.a), b: new(big.Rat).Neg(x.b), d: x.d}
}

// Mul returns x·y: (a₁+b₁√d)(a₂+b₂√d) = a₁a₂ + b₁b₂d + (a₁b₂+a₂b₁)√d.
func (x Quad) Mul(y Quad) Quad {
	d := mergeField(x, y)
	aa := new(big.Rat).Mul(x.a, y.a)
	bbd := new(big.Rat).Mul(x.b, y.b)
	bbd.Mul(bbd, new(big.Rat).SetInt64(d))
	a := aa.Add(aa, bbd)
	ab := new(big.Rat).Mul(x.a, y.b)
	ba := new(big.Rat).Mul(x.b, y.a)
	b := ab.Add(ab, ba)
	return Quad{a: a, b: b, d: d}.normalize()
}

// MulRat returns x scaled by the rational r.
func (x Quad) MulRat(r *big.Rat) Quad {
	return Quad{
		a: new(big.Rat).Mul(x.a, r),
		b: new(big.Rat).Mul(x.b, r),
		d: x.d,
	}.normalize()
}

// Inv returns 1/x. It panics on zero. The inverse of a + b√d is
// (a − b√d) / (a² − b²d), whose denominator is nonzero for nonzero x
// because d is not a perfect square.
func (x Quad) Inv() Quad {
	if x.Sign() == 0 {
		panic("numeric: division by zero")
	}
	if x.d == 0 {
		return FromRat(new(big.Rat).Inv(x.a))
	}
	norm := new(big.Rat).Mul(x.a, x.a)
	b2d := new(big.Rat).Mul(x.b, x.b)
	b2d.Mul(b2d, new(big.Rat).SetInt64(x.d))
	norm.Sub(norm, b2d)
	inv := new(big.Rat).Inv(norm)
	return Quad{
		a: new(big.Rat).Mul(x.a, inv),
		b: new(big.Rat).Mul(new(big.Rat).Neg(x.b), inv),
		d: x.d,
	}.normalize()
}

// Div returns x / y.
func (x Quad) Div(y Quad) Quad {
	// Promote y into the common field before inverting so that a pure
	// rational divisor works for any x.
	d := mergeField(x, y)
	yy := y
	yy.d = d
	if yy.b.Sign() == 0 {
		yy.d = 0
	}
	return x.Mul(yy.Inv())
}

// Sign returns −1, 0 or +1 as the exact sign of x.
// For a + b√d the sign is decided without approximation:
// if a and b share a sign it is that sign; otherwise compare a² with b²d,
// and the larger magnitude's term decides.
func (x Quad) Sign() int {
	sa, sb := x.a.Sign(), x.b.Sign()
	if x.d == 0 || sb == 0 {
		return sa
	}
	if sa == 0 {
		return sb
	}
	if sa == sb {
		return sa
	}
	// Opposite signs: sign(a + b√d) = sign(a) iff a² > b²d.
	a2 := new(big.Rat).Mul(x.a, x.a)
	b2d := new(big.Rat).Mul(x.b, x.b)
	b2d.Mul(b2d, new(big.Rat).SetInt64(x.d))
	switch a2.Cmp(b2d) {
	case +1:
		return sa
	case -1:
		return sb
	default:
		return 0 // impossible for square-free d > 1 with b ≠ 0, kept for safety
	}
}

// Cmp compares x and y exactly, returning −1, 0 or +1.
func (x Quad) Cmp(y Quad) int { return x.Sub(y).Sign() }

// Equal reports x == y exactly.
func (x Quad) Equal(y Quad) bool { return x.Cmp(y) == 0 }

// Less reports x < y exactly.
func (x Quad) Less(y Quad) bool { return x.Cmp(y) < 0 }

// Max returns the largest of the operands. It panics on an empty list.
func Max(first Quad, rest ...Quad) Quad {
	best := first
	for _, v := range rest {
		if v.Cmp(best) > 0 {
			best = v
		}
	}
	return best
}

// Min returns the smallest of the operands.
func Min(first Quad, rest ...Quad) Quad {
	best := first
	for _, v := range rest {
		if v.Cmp(best) < 0 {
			best = v
		}
	}
	return best
}

// Float64 returns the closest floating-point approximation of x.
func (x Quad) Float64() float64 {
	af, _ := x.a.Float64()
	if x.d == 0 {
		return af
	}
	bf, _ := x.b.Float64()
	return af + float64(bf*math.Sqrt(float64(x.d)))
}

// String renders the value as "a + b√d" with rational coefficients.
func (x Quad) String() string {
	if x.d == 0 {
		return x.a.RatString()
	}
	if x.a.Sign() == 0 {
		return fmt.Sprintf("%s√%d", x.b.RatString(), x.d)
	}
	if x.b.Sign() < 0 {
		nb := new(big.Rat).Neg(x.b)
		return fmt.Sprintf("%s - %s√%d", x.a.RatString(), nb.RatString(), x.d)
	}
	return fmt.Sprintf("%s + %s√%d", x.a.RatString(), x.b.RatString(), x.d)
}
