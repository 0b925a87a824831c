// Package memcafw implements the MemCA control framework of Section IV-C
// as real networked components (Figure 8): MemCA-FE, a daemon running in
// the co-located adversary VM that executes the attack program in ON-OFF
// bursts and reports each burst's resource consumption; and MemCA-BE, the
// attacker-side controller that probes the target web system's tail
// response time and retunes the FE's (R, L, I) parameters through the
// Kalman-filtered commander.
//
// FE and BE speak newline-delimited JSON over TCP, so they can run as
// separate processes (cmd/memca-fe and cmd/memca-be) exactly as the paper
// deploys them.
package memcafw

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"time"
)

// MsgType discriminates protocol envelopes.
type MsgType string

// Protocol message types.
const (
	// MsgHello is sent by the FE on connection accept.
	MsgHello MsgType = "hello"
	// MsgSetParams carries new attack parameters from BE to FE.
	MsgSetParams MsgType = "set_params"
	// MsgBurstReport carries one burst's execution report from FE to BE.
	MsgBurstReport MsgType = "burst_report"
	// MsgStop tells the FE to cease attacking (it keeps listening).
	MsgStop MsgType = "stop"
)

// Hello announces an FE to its BE.
type Hello struct {
	// FEID identifies the frontend instance.
	FEID string `json:"fe_id"`
	// Program names the attack program in use.
	Program string `json:"program"`
}

// ParamsMsg is the wire form of attack.Params.
type ParamsMsg struct {
	// Intensity is R in (0, 1].
	Intensity float64 `json:"intensity"`
	// BurstMs is L in milliseconds.
	BurstMs int64 `json:"burst_ms"`
	// IntervalMs is I in milliseconds.
	IntervalMs int64 `json:"interval_ms"`
}

// BurstReport is the FE's per-burst telemetry: the attack program's
// execution time is the FE's conservative estimate of the millibottleneck
// length (Section IV-C), and the consumed share of the profiled resource
// approximates R.
type BurstReport struct {
	// Burst is the 1-based burst counter.
	Burst int `json:"burst"`
	// ExecMs is the measured execution time of the attack program.
	ExecMs int64 `json:"exec_ms"`
	// ResourceShare is the fraction of the host's profiled peak the
	// program consumed during the burst.
	ResourceShare float64 `json:"resource_share"`
}

// Envelope is the single wire message type.
type Envelope struct {
	Type   MsgType      `json:"type"`
	Hello  *Hello       `json:"hello,omitempty"`
	Params *ParamsMsg   `json:"params,omitempty"`
	Report *BurstReport `json:"report,omitempty"`
}

// maxMs is the longest millisecond count that time.Duration holds. Each
// wire field is read as time.Duration(ms)*time.Millisecond, which wraps
// negative past it.
const maxMs = math.MaxInt64 / int64(time.Millisecond)

// Validate reports the first envelope error, or nil.
func (e Envelope) Validate() error {
	switch e.Type {
	case MsgHello:
		if e.Hello == nil {
			return fmt.Errorf("memcafw: hello envelope missing body")
		}
	case MsgSetParams:
		if e.Params == nil {
			return fmt.Errorf("memcafw: set_params envelope missing body")
		}
		if e.Params.Intensity <= 0 || e.Params.Intensity > 1 {
			return fmt.Errorf("memcafw: intensity %v out of (0,1]", e.Params.Intensity)
		}
		if e.Params.BurstMs <= 0 || e.Params.IntervalMs <= 0 || e.Params.BurstMs > e.Params.IntervalMs {
			return fmt.Errorf("memcafw: invalid burst/interval %d/%d ms", e.Params.BurstMs, e.Params.IntervalMs)
		}
		if e.Params.IntervalMs > maxMs { // and so BurstMs too
			return fmt.Errorf("memcafw: interval %d ms exceeds the longest duration, %d ms", e.Params.IntervalMs, maxMs)
		}
	case MsgBurstReport:
		if e.Report == nil {
			return fmt.Errorf("memcafw: burst_report envelope missing body")
		}
		if e.Report.ExecMs < 0 || e.Report.ExecMs > maxMs {
			return fmt.Errorf("memcafw: exec time %d ms out of [0, %d]", e.Report.ExecMs, maxMs)
		}
	case MsgStop:
		// No body.
	default:
		return fmt.Errorf("memcafw: unknown message type %q", e.Type)
	}
	return nil
}

// conn wraps a TCP connection with line-oriented JSON framing.
type conn struct {
	raw net.Conn
	r   *bufio.Scanner
	w   *bufio.Writer
}

func newConn(raw net.Conn) *conn {
	sc := bufio.NewScanner(raw)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &conn{raw: raw, r: sc, w: bufio.NewWriter(raw)}
}

// send writes one envelope and flushes.
func (c *conn) send(e Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("memcafw: marshal: %w", err)
	}
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("memcafw: write: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("memcafw: flush: %w", err)
	}
	return nil
}

// recv reads one envelope, blocking until a line arrives or the peer
// closes.
func (c *conn) recv() (Envelope, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return Envelope{}, fmt.Errorf("memcafw: read: %w", err)
		}
		return Envelope{}, fmt.Errorf("memcafw: connection closed")
	}
	var e Envelope
	if err := json.Unmarshal(c.r.Bytes(), &e); err != nil {
		return Envelope{}, fmt.Errorf("memcafw: unmarshal: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

func (c *conn) close() error { return c.raw.Close() }

// paramsToMsg converts durations to the wire form.
func paramsToMsg(intensity float64, burst, interval time.Duration) ParamsMsg {
	return ParamsMsg{
		Intensity:  intensity,
		BurstMs:    burst.Milliseconds(),
		IntervalMs: interval.Milliseconds(),
	}
}
