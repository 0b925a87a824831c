// Command memca-fe runs the MemCA frontend daemon: it executes the attack
// program in ON-OFF bursts inside the (co-located) adversary machine,
// accepts a MemCA-BE connection over TCP, applies parameter retunes, and
// streams per-burst reports back.
//
// Usage:
//
//	memca-fe -listen 127.0.0.1:7070 -program stream
//
// The "stream" program generates real memory traffic (a RAMspeed-style
// scan through a cache-defeating buffer); "simulated" only sleeps, for
// demos and tests.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memca/internal/memcafw"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memca-fe:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:7070", "TCP address to serve the BE on")
		id        = flag.String("id", "fe-1", "frontend identifier")
		program   = flag.String("program", "stream", "attack program: stream or simulated")
		bufMB     = flag.Int("buffer-mb", 64, "streaming buffer size (should exceed the LLC)")
		peakMBps  = flag.Float64("peak-mbps", 9000, "calibrated single-core streaming peak for resource-share reporting")
		burstMs   = flag.Int64("burst-ms", 500, "initial burst length L")
		interval  = flag.Int64("interval-ms", 2000, "initial burst interval I")
		intensity = flag.Float64("intensity", 1.0, "initial intensity R")
	)
	flag.Parse()

	var prog memcafw.AttackProgram
	switch *program {
	case "stream":
		p, err := memcafw.NewStreamProgram(*bufMB, *peakMBps)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := p.Close(); cerr != nil {
				log.Printf("memca-fe: close stream program: %v", cerr)
			}
		}()
		prog = p
	case "simulated":
		prog = memcafw.SimulatedProgram{}
	default:
		return fmt.Errorf("unknown -program %q (want stream or simulated)", *program)
	}

	fe, err := memcafw.NewFrontend(memcafw.FrontendConfig{
		ID:      *id,
		Listen:  *listen,
		Program: prog,
		Initial: memcafw.ParamsMsg{Intensity: *intensity, BurstMs: *burstMs, IntervalMs: *interval},
		Logger:  log.New(os.Stderr, "memca-fe ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := fe.Close(); cerr != nil {
			log.Printf("memca-fe: close: %v", cerr)
		}
	}()
	log.Printf("memca-fe %s serving on %s (program %s)", *id, fe.Addr(), prog.Name())
	return fe.Serve()
}
