package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Dist is a distribution over non-negative durations. Implementations must
// be safe to share across samples but draw randomness only from the rng
// passed to Sample, keeping simulations reproducible.
type Dist interface {
	// Sample draws one value. Implementations never return a negative
	// duration.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution mean.
	Mean() time.Duration
}

// secondsToDuration converts a float in seconds to a Duration, clamping
// negatives to zero and guarding against overflow.
func secondsToDuration(s float64) time.Duration {
	if s <= 0 || math.IsNaN(s) {
		return 0
	}
	if s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}

// Deterministic is a distribution that always returns the same value.
type Deterministic struct {
	Value time.Duration
}

// NewDeterministic returns a distribution that always yields v.
func NewDeterministic(v time.Duration) Deterministic { return Deterministic{Value: v} }

// Sample implements Dist.
func (d Deterministic) Sample(*rand.Rand) time.Duration {
	if d.Value < 0 {
		return 0
	}
	return d.Value
}

// Mean implements Dist.
func (d Deterministic) Mean() time.Duration { return d.Value }

// Exponential is an exponential distribution, the paper's model for both
// inter-arrival gaps (Poisson arrivals) and per-tier service times.
type Exponential struct {
	mean float64 // seconds
}

// NewExponential returns an exponential distribution with the given mean.
// It panics when mean is not positive, which is always a programming error.
func NewExponential(mean time.Duration) Exponential {
	if mean <= 0 {
		panic(fmt.Sprintf("sim: exponential mean must be positive, got %v", mean))
	}
	return Exponential{mean: mean.Seconds()}
}

// NewExponentialRate returns an exponential distribution with the given
// event rate in events per second.
func NewExponentialRate(ratePerSec float64) Exponential {
	if ratePerSec <= 0 || math.IsNaN(ratePerSec) {
		panic(fmt.Sprintf("sim: exponential rate must be positive, got %v", ratePerSec))
	}
	return Exponential{mean: 1 / ratePerSec}
}

// Sample implements Dist.
func (d Exponential) Sample(rng *rand.Rand) time.Duration {
	return secondsToDuration(rng.ExpFloat64() * d.mean)
}

// Mean implements Dist.
func (d Exponential) Mean() time.Duration { return secondsToDuration(d.mean) }

// LogNormal is a log-normal distribution parameterized by the mean and
// sigma of the underlying normal, useful for heavy-ish service times.
type LogNormal struct {
	Mu    float64 // mean of log(X), X in seconds
	Sigma float64 // stddev of log(X)
}

// NewLogNormalFromMean returns a log-normal whose arithmetic mean is mean
// and whose log-space standard deviation is sigma.
func NewLogNormalFromMean(mean time.Duration, sigma float64) LogNormal {
	if mean <= 0 {
		panic(fmt.Sprintf("sim: log-normal mean must be positive, got %v", mean))
	}
	if sigma < 0 {
		panic(fmt.Sprintf("sim: log-normal sigma must be non-negative, got %v", sigma))
	}
	mu := math.Log(mean.Seconds()) - sigma*sigma/2
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample implements Dist.
func (d LogNormal) Sample(rng *rand.Rand) time.Duration {
	return secondsToDuration(math.Exp(d.Mu + d.Sigma*rng.NormFloat64()))
}

// Mean implements Dist.
func (d LogNormal) Mean() time.Duration {
	return secondsToDuration(math.Exp(d.Mu + d.Sigma*d.Sigma/2))
}

// Erlang is the sum of K independent exponentials, giving a tunable
// coefficient of variation below 1 (CV = 1/sqrt(K)).
type Erlang struct {
	K    int
	each Exponential
}

// NewErlang returns an Erlang-k distribution with the given overall mean.
func NewErlang(k int, mean time.Duration) Erlang {
	if k <= 0 {
		panic(fmt.Sprintf("sim: erlang shape must be positive, got %d", k))
	}
	return Erlang{K: k, each: NewExponential(mean / time.Duration(k))}
}

// Sample implements Dist.
func (d Erlang) Sample(rng *rand.Rand) time.Duration {
	var sum time.Duration
	for i := 0; i < d.K; i++ {
		sum += d.each.Sample(rng)
	}
	return sum
}

// Mean implements Dist.
func (d Erlang) Mean() time.Duration { return time.Duration(d.K) * d.each.Mean() }
