package analytical

import (
	"fmt"
	"math"
	"time"
)

// MMc holds the closed-form results for an M/M/c queue: Poisson arrivals
// at rate lambda, c servers each at rate mu, infinite queue. These formulas
// validate the simulator's steady-state behaviour between attack bursts
// (the OFF periods are plain M/M/c systems).
type MMc struct {
	Lambda float64
	Mu     float64
	C      int
}

// NewMMc validates the parameters; the system must be stable
// (lambda < c*mu).
func NewMMc(lambda, mu float64, c int) (MMc, error) {
	if lambda <= 0 {
		return MMc{}, fmt.Errorf("analytical: lambda must be positive, got %v", lambda)
	}
	if mu <= 0 {
		return MMc{}, fmt.Errorf("analytical: mu must be positive, got %v", mu)
	}
	if c <= 0 {
		return MMc{}, fmt.Errorf("analytical: c must be positive, got %d", c)
	}
	if lambda >= float64(c)*mu {
		return MMc{}, fmt.Errorf("analytical: unstable system: lambda %v >= c*mu %v", lambda, float64(c)*mu)
	}
	return MMc{Lambda: lambda, Mu: mu, C: c}, nil
}

// Utilization returns rho = lambda / (c*mu).
func (q MMc) Utilization() float64 {
	return q.Lambda / (float64(q.C) * q.Mu)
}

// ErlangC returns the probability an arriving request must wait (all c
// servers busy).
func (q MMc) ErlangC() float64 {
	c := float64(q.C)
	a := q.Lambda / q.Mu // offered load in Erlangs
	rho := q.Utilization()

	// Sum_{k=0}^{c-1} a^k/k!, computed iteratively for stability.
	sum := 0.0
	term := 1.0
	for k := 0; k < q.C; k++ {
		if k > 0 {
			term *= a / float64(k)
		}
		sum += term
	}
	// a^c / c!.
	top := term * a / c
	return top / (top + (1-rho)*sum)
}

// MeanWait returns the mean time in queue (excluding service), Wq.
func (q MMc) MeanWait() time.Duration {
	wq := q.ErlangC() / (float64(q.C)*q.Mu - q.Lambda)
	return time.Duration(wq * float64(time.Second))
}

// MeanResponse returns the mean sojourn time W = Wq + 1/mu.
//
//memca:keep queueing/validation_test.go checks the simulator against this closed form
func (q MMc) MeanResponse() time.Duration {
	return q.MeanWait() + time.Duration(float64(time.Second)/q.Mu)
}

// WaitQuantile returns the p-quantile of the waiting time (0 <= p < 1).
// For M/M/c the conditional wait is exponential:
// P(Wq > t) = ErlangC * exp(-(c*mu - lambda) t).
func (q MMc) WaitQuantile(p float64) time.Duration {
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	pc := q.ErlangC()
	if 1-p >= pc {
		return 0 // the quantile falls in the no-wait mass
	}
	rate := float64(q.C)*q.Mu - q.Lambda
	t := -math.Log((1-p)/pc) / rate
	return time.Duration(t * float64(time.Second))
}
