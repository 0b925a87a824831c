package memcafw

import (
	"context"
	"fmt"
	"time"
)

// ExecResult is what an attack program measures about its own burst.
type ExecResult struct {
	// Elapsed is the wall-clock execution time — the FE's conservative
	// millibottleneck estimate.
	Elapsed time.Duration
	// ResourceShare is the consumed fraction of the host's profiled peak
	// resource (memory bandwidth).
	ResourceShare float64
}

// AttackProgram is one burst's worth of interference. Implementations must
// return promptly once the burst length elapses or ctx is canceled.
type AttackProgram interface {
	// Execute runs one burst at the given intensity for the given
	// length.
	Execute(ctx context.Context, intensity float64, length time.Duration) (ExecResult, error)
	// Name labels the program in the hello message.
	Name() string
}

// StreamProgram is a real bus-saturation load: it sweeps writes through a
// buffer sized past any LLC so every access goes to memory, mimicking
// RAMspeed. On a real co-located deployment this is the actual attack; in
// tests it doubles as a harmless CPU/memory load.
type StreamProgram struct {
	buf []byte
	// peakBytesPerSec is the calibrated single-core streaming peak used
	// to normalize ResourceShare.
	peakBytesPerSec float64
}

// NewStreamProgram allocates the streaming buffer. sizeMB should exceed
// the LLC (paper host: 15 MB per package); peakMBps normalizes the
// reported resource share.
func NewStreamProgram(sizeMB int, peakMBps float64) (*StreamProgram, error) {
	if sizeMB <= 0 {
		return nil, fmt.Errorf("memcafw: buffer size must be positive, got %d MB", sizeMB)
	}
	if peakMBps <= 0 {
		return nil, fmt.Errorf("memcafw: peak bandwidth must be positive, got %v", peakMBps)
	}
	return &StreamProgram{
		buf:             make([]byte, sizeMB<<20),
		peakBytesPerSec: peakMBps * 1e6,
	}, nil
}

// Name implements AttackProgram.
func (p *StreamProgram) Name() string { return "stream" }

// Execute implements AttackProgram: stream through the buffer until the
// burst ends. Intensity modulates the duty cycle inside the burst
// (work/pause slicing), matching how a lock program modulates lock duty.
func (p *StreamProgram) Execute(ctx context.Context, intensity float64, length time.Duration) (ExecResult, error) {
	if intensity <= 0 || intensity > 1 {
		return ExecResult{}, fmt.Errorf("memcafw: intensity %v out of (0,1]", intensity)
	}
	if length <= 0 {
		return ExecResult{}, fmt.Errorf("memcafw: burst length must be positive, got %v", length)
	}
	start := time.Now()
	deadline := start.Add(length)
	var touched int64
	const stride = 64 // one cache line
	slice := 2 * time.Millisecond
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return ExecResult{}, err
		}
		// Work for intensity*slice, pause for the rest.
		workUntil := time.Now().Add(time.Duration(float64(slice) * intensity))
		for time.Now().Before(workUntil) {
			for i := 0; i < len(p.buf); i += stride {
				p.buf[i]++
				touched += stride
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
		if pause := time.Duration(float64(slice) * (1 - intensity)); pause > 0 {
			select {
			case <-ctx.Done():
				return ExecResult{}, ctx.Err()
			case <-time.After(pause):
			}
		}
	}
	elapsed := time.Since(start)
	share := float64(touched) / elapsed.Seconds() / p.peakBytesPerSec
	if share > 1 {
		share = 1
	}
	return ExecResult{Elapsed: elapsed, ResourceShare: share}, nil
}

// SimulatedProgram is a no-load stand-in for tests and demos: it sleeps
// for the burst length and reports the intensity as the resource share.
type SimulatedProgram struct{}

// Name implements AttackProgram.
func (SimulatedProgram) Name() string { return "simulated" }

// Execute implements AttackProgram.
func (SimulatedProgram) Execute(ctx context.Context, intensity float64, length time.Duration) (ExecResult, error) {
	if intensity <= 0 || intensity > 1 {
		return ExecResult{}, fmt.Errorf("memcafw: intensity %v out of (0,1]", intensity)
	}
	if length <= 0 {
		return ExecResult{}, fmt.Errorf("memcafw: burst length must be positive, got %v", length)
	}
	start := time.Now()
	select {
	case <-ctx.Done():
		return ExecResult{}, ctx.Err()
	case <-time.After(length):
	}
	return ExecResult{Elapsed: time.Since(start), ResourceShare: intensity}, nil
}

// Verify interface compliance.
var (
	_ AttackProgram = (*StreamProgram)(nil)
	_ AttackProgram = SimulatedProgram{}
)
