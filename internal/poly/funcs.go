package poly

import (
	"fmt"
	"math"
)

// Approximations of the common nonlinear NN operators. Each returns a
// Chebyshev-basis polynomial on the stated interval; the SIHE lowering
// selects degree by the precision/depth budget.

// Exp approximates e^x on [a,b].
func Exp(a, b float64, degree int) *Polynomial {
	return ChebyshevInterpolate(math.Exp, a, b, degree)
}

// Log approximates ln(x) on [a,b], a > 0.
func Log(a, b float64, degree int) (*Polynomial, error) {
	if a <= 0 {
		return nil, fmt.Errorf("poly: log domain must be positive, got [%g,%g]", a, b)
	}
	return ChebyshevInterpolate(math.Log, a, b, degree), nil
}

// Tanh approximates tanh(x) on [a,b].
func Tanh(a, b float64, degree int) *Polynomial {
	return ChebyshevInterpolate(math.Tanh, a, b, degree)
}

// Sigmoid approximates 1/(1+e^-x) on [a,b].
func Sigmoid(a, b float64, degree int) *Polynomial {
	return ChebyshevInterpolate(func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, a, b, degree)
}

// GELU approximates x*Phi(x) on [a,b].
func GELU(a, b float64, degree int) *Polynomial {
	return ChebyshevInterpolate(func(x float64) float64 {
		return 0.5 * x * (1 + math.Erf(x/math.Sqrt2))
	}, a, b, degree)
}

// InvSqrt approximates 1/sqrt(x) on [a,b], a > 0 (used by softmax and
// normalisation layers).
func InvSqrt(a, b float64, degree int) (*Polynomial, error) {
	if a <= 0 {
		return nil, fmt.Errorf("poly: inv-sqrt domain must be positive, got [%g,%g]", a, b)
	}
	return ChebyshevInterpolate(func(x float64) float64 { return 1 / math.Sqrt(x) }, a, b, degree), nil
}
