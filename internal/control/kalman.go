// Package control implements the feedback machinery of MemCA's
// implementation section (IV-C): a scalar Kalman filter for smoothing the
// noisy percentile-response-time signal, the commander that retunes the
// attack parameters (R, L, I) toward the damage goal while respecting the
// stealthiness bound, and the Loop around them (probe window and decision
// step) that simulated and live runs both drive — all without knowing the
// target system's internals.
package control

import (
	"fmt"
	"math"
)

// Kalman1D is a one-dimensional Kalman filter with identity dynamics
// (x_t = x_{t-1} + w, z_t = x_t + v): a statistically principled smoother
// for a slowly drifting level observed with noise.
type Kalman1D struct {
	q float64 // process noise variance
	r float64 // measurement noise variance

	x      float64 // state estimate
	p      float64 // estimate variance
	primed bool
}

// NewKalman1D builds a filter with the given process and measurement
// noise variances.
func NewKalman1D(processNoise, measurementNoise float64) (*Kalman1D, error) {
	if processNoise <= 0 || math.IsNaN(processNoise) {
		return nil, fmt.Errorf("control: process noise must be positive, got %v", processNoise)
	}
	if measurementNoise <= 0 || math.IsNaN(measurementNoise) {
		return nil, fmt.Errorf("control: measurement noise must be positive, got %v", measurementNoise)
	}
	return &Kalman1D{q: processNoise, r: measurementNoise}, nil
}

// Update feeds one measurement and returns the posterior state estimate.
func (k *Kalman1D) Update(z float64) float64 {
	if !k.primed {
		k.x = z
		k.p = k.r
		k.primed = true
		return k.x
	}
	// Predict.
	p := k.p + k.q
	// Update.
	gain := p / (p + k.r)
	k.x += gain * (z - k.x)
	k.p = (1 - gain) * p
	return k.x
}

// Value returns the current state estimate (0 before any measurement).
func (k *Kalman1D) Value() float64 { return k.x }
