package grid

import (
	"fmt"
	"math"
)

// Stretched grids. Real F3D grids cluster points toward solid surfaces
// to resolve boundary layers; the solver supports per-direction
// nonuniform spacing via optional coordinate arrays on the zone. A nil
// coordinate array means uniform spacing (the DJ/DK/DL scalars), which
// keeps the uniform code path — and its bitwise guarantees — untouched.

// StretchCoords returns n coordinates on [0, 1] clustered symmetrically
// toward both ends with the two-sided tanh stretching
//
//	x(η) = ½ (1 + tanh(β(2η−1)) / tanh(β)),  η = i/(n−1).
//
// beta = 0 gives uniform spacing; larger beta clusters harder (β ≈ 2
// puts several times more points near the walls than at the center).
func StretchCoords(n int, beta float64) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("grid: StretchCoords needs n >= 2, got %d", n))
	}
	if beta < 0 {
		panic(fmt.Sprintf("grid: StretchCoords beta must be >= 0, got %g", beta))
	}
	x := make([]float64, n)
	if beta == 0 {
		for i := range x {
			x[i] = float64(i) / float64(n-1)
		}
		return x
	}
	t := math.Tanh(beta)
	for i := range x {
		eta := float64(i) / float64(n-1)
		x[i] = 0.5 * (1 + math.Tanh(beta*(2*eta-1))/t)
	}
	// Pin the ends exactly.
	x[0], x[n-1] = 0, 1
	return x
}

// StretchedZone builds a zone whose directions are clustered with the
// given beta factors (0 = uniform in that direction). The DJ/DK/DL
// scalars are set to the minimum local spacing, which is what time-step
// estimation needs.
func StretchedZone(name string, jmax, kmax, lmax int, betaJ, betaK, betaL float64) Zone {
	z := NewZone(name, jmax, kmax, lmax)
	if betaJ > 0 {
		z.XJ = StretchCoords(jmax, betaJ)
		z.DJ = minSpacing(z.XJ)
	}
	if betaK > 0 {
		z.XK = StretchCoords(kmax, betaK)
		z.DK = minSpacing(z.XK)
	}
	if betaL > 0 {
		z.XL = StretchCoords(lmax, betaL)
		z.DL = minSpacing(z.XL)
	}
	return z
}

func minSpacing(x []float64) float64 {
	m := math.Inf(1)
	for i := 1; i < len(x); i++ {
		if d := x[i] - x[i-1]; d < m {
			m = d
		}
	}
	return m
}

// Stretched reports whether any direction has nonuniform spacing.
func (z *Zone) Stretched() bool {
	return z.XJ != nil || z.XK != nil || z.XL != nil
}

// CoordsK returns the K coordinates (materializing uniform spacing when
// no stretch array is present). The result must be treated as
// read-only.
func (z *Zone) CoordsK() []float64 { return z.coords(z.XK, z.KMax, z.DK) }

// CoordsL returns the L coordinates.
func (z *Zone) CoordsL() []float64 { return z.coords(z.XL, z.LMax, z.DL) }

func (z *Zone) coords(x []float64, n int, d float64) []float64 {
	if x != nil {
		return x
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * d
	}
	return out
}

// StretchCoordsOneSided returns n coordinates on [0, 1] clustered
// toward x = 0 only (the wall side of a boundary-layer grid):
//
//	x(η) = 1 − tanh(β(1−η)) / tanh(β).
//
// beta = 0 gives uniform spacing.
func StretchCoordsOneSided(n int, beta float64) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("grid: StretchCoordsOneSided needs n >= 2, got %d", n))
	}
	if beta < 0 {
		panic(fmt.Sprintf("grid: StretchCoordsOneSided beta must be >= 0, got %g", beta))
	}
	x := make([]float64, n)
	if beta == 0 {
		for i := range x {
			x[i] = float64(i) / float64(n-1)
		}
		return x
	}
	t := math.Tanh(beta)
	for i := range x {
		eta := float64(i) / float64(n-1)
		x[i] = 1 - math.Tanh(beta*(1-eta))/t
	}
	x[0], x[n-1] = 0, 1
	return x
}
