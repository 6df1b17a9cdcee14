//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"syscall"
	"time"
)

// roundOpts describes one round: fresh server, set-up, warm-up, measure.
type roundOpts struct {
	wl      *workload
	seed    uint64
	warm    time.Duration
	measure time.Duration
	// traced starts the server with -metrics-addr, scrapes its counters at
	// both ends of the measured window and records generator spans in every
	// other slice, so the untraced slices of the same server give the
	// tracing overhead.
	traced bool
	// setups is how many times set-up is performed and timed; measurement
	// runs on the last. setup_s is their median.
	setups int
}

const sliceLen = time.Second

// measured are the numbers of a round that depend on how fast the machine
// ran while it was measured.
type measured struct {
	OpsPerS     float64 `json:"ops_per_s"`
	CPUUsPerOp  float64 `json:"cpu_us_per_op"`
	LatP50Us    float64 `json:"lat_p50_us"`
	LatP99Us    float64 `json:"lat_p99_us"`
	ServerRSSMB float64 `json:"server_rss_mb"`
}

// atNominalSpeed restates m for a machine running at the nominal speed when
// it was measured at speed times that: rates rise, times shrink, and the
// part of the footprint that grew under load (above idleRSS) grows with the
// ops the server would have handled. See "Machine speed" in README.md.
func (m measured) atNominalSpeed(speed, idleRSS float64) measured {
	return measured{
		OpsPerS:     m.OpsPerS / speed,
		CPUUsPerOp:  m.CPUUsPerOp * speed,
		LatP50Us:    m.LatP50Us * speed,
		LatP99Us:    m.LatP99Us * speed,
		ServerRSSMB: idleRSS + (m.ServerRSSMB-idleRSS)/speed,
	}
}

// roundResult holds every number one round produces.
type roundResult struct {
	Seconds   float64
	Attempted int
	Failed    int
	FailedBy  map[string]int
	Samples   int
	ops       int // ops completed and checked in the window

	measured          // at nominal machine speed: what is reported and gated
	Raw      measured // as the clocks read

	// GenCPUUsPerOp is the generator's own CPU per op, fixed work measured
	// in the same window on the same cores; Speed is the workload's nominal
	// value of it over this one.
	GenCPUUsPerOp float64
	Speed         float64

	LatP999Us   float64 // as the clocks read; printed, not gated
	LatMaxUs    float64 // as the clocks read; printed, not gated
	FailRatio   float64
	SetupS      float64
	GenCPUShare float64

	// Invalid says why the round's numbers must not be used ("" if they may).
	Invalid string

	// Traced rounds only.
	counters    map[string]float64 // server counter deltas over the window
	gauges      map[string]float64 // server gauges at the end of the window
	tracedOps   float64            // ops/s in slices with spans on
	untracedOps float64            // ops/s in slices with spans off
	callerSpans []span
	calleeSpans []span
}

// session is a server with a registered generator: the result of set-up.
type session struct {
	srv *server
	gen *generator
}

func (s *session) close() {
	if s.gen != nil {
		s.gen.close()
	}
	if s.srv != nil {
		s.srv.stop()
	}
}

// setUp execs sipproxyd and brings every generator endpoint to the point
// where traffic can start; its duration is setup_s.
func setUp(ctx context.Context, bin string, o roundOpts) (*session, time.Duration, error) {
	t0 := time.Now()
	s := &session{}
	var err error
	if s.srv, err = startServer(ctx, bin, o.wl, o.traced); err != nil {
		return nil, 0, err
	}
	if s.gen, err = newGenerator(o.wl, o.seed, s.srv.addr, benchDomain); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("%s: %w (server said: %s)", o.wl.name, err, s.srv.out)
	}
	return s, time.Since(t0), nil
}

var errServerExited = errors.New("sipproxyd exited during the round")

// pause sleeps until the generator clock reads t, unless the round is
// cancelled or the server dies first.
func pause(ctx context.Context, s *session, t time.Duration) error {
	timer := time.NewTimer(t - time.Since(s.gen.epoch))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.srv.exited:
		return errServerExited
	}
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRound performs one round and returns its numbers. A round that cannot
// produce trustworthy numbers returns them with Invalid set; an error means
// the round could not run at all.
func runRound(ctx context.Context, bin string, o roundOpts) (*roundResult, error) {
	var setups []float64
	var s *session
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(ctx, bin, o); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.close()
	res := &roundResult{SetupS: median(setups)}
	idleRSS, err := s.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	s.gen.start()
	defer s.gen.finish()
	begin := time.Since(s.gen.epoch) + o.warm
	if err := pause(ctx, s, begin); err != nil {
		return nil, err
	}

	// Measured window: slice boundaries carry the server's CPU reading, so
	// every per-slice ratio uses one clock pair.
	nSlices := int(o.measure / sliceLen)
	if nSlices < 1 {
		nSlices = 1
	}
	step := o.measure / time.Duration(nSlices)
	type mark struct {
		t   int64
		cpu float64
	}
	marks := make([]mark, 0, nSlices+1)
	var scrape0 map[string]float64
	if o.traced {
		if scrape0, err = s.srv.scrape(); err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
	}
	gen0 := selfCPUSeconds()
	for i := 0; i <= nSlices; i++ {
		if i > 0 {
			if err := pause(ctx, s, begin+time.Duration(i)*step); err != nil {
				if errors.Is(err, errServerExited) {
					res.Invalid = fmt.Sprintf("%v: %s", err, s.srv.out)
					return res, nil
				}
				return nil, err
			}
		}
		cpu, err := s.srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		marks = append(marks, mark{int64(time.Since(s.gen.epoch)), cpu})
		s.gen.tracing.Store(o.traced && i%2 == 0 && i < nSlices)
	}
	gen1 := selfCPUSeconds()
	if res.Raw.ServerRSSMB, err = s.srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if o.traced {
		scrape1, err := s.srv.scrape()
		if err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
		res.counters, res.gauges = map[string]float64{}, scrape1
		for k, v := range scrape1 {
			res.counters[k] = v - scrape0[k]
		}
	}
	s.gen.finish()

	// Everything below is arithmetic on the logs.
	t0, t1 := marks[0].t, marks[nSlices].t
	res.Seconds = float64(t1-t0) / 1e9
	logs, calleeSpans := s.gen.logs()
	sliceOps := make([]int, nSlices)
	res.FailedBy = map[string]int{}
	var lats []float64
	ok := 0
	for _, l := range logs {
		for _, ev := range l.ops {
			if ev.done < t0 || ev.done >= t1 {
				continue
			}
			res.Attempted++
			if ev.why != opOK {
				res.Failed++
				res.FailedBy[ev.why.String()]++
				continue
			}
			ok++
			i := sort.Search(nSlices, func(i int) bool { return marks[i+1].t > ev.done })
			sliceOps[i]++
		}
		for _, ls := range l.lats {
			if ls.done >= t0 && ls.done < t1 {
				lats = append(lats, float64(ls.dur)/1e3)
			}
		}
		res.callerSpans = append(res.callerSpans, l.spans...)
	}
	res.calleeSpans = calleeSpans
	sort.Float64s(lats)
	res.Samples = len(lats)
	cpu := marks[nSlices].cpu - marks[0].cpu
	if res.Attempted == 0 || ok == 0 || len(lats) == 0 {
		res.Invalid = "no op completed in the measured window"
		return res, nil
	}
	res.ops = ok
	res.Raw.OpsPerS = float64(ok) / res.Seconds
	res.Raw.CPUUsPerOp = cpu * 1e6 / float64(ok)
	res.Raw.LatP50Us = percentile(lats, 0.50)
	res.Raw.LatP99Us = percentile(lats, 0.99)
	res.LatP999Us = percentile(lats, 0.999)
	res.LatMaxUs = lats[len(lats)-1]
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	gen := gen1 - gen0
	if gen <= 0 {
		res.Invalid = "the generator's CPU time did not advance over the window"
		return res, nil
	}
	res.GenCPUShare = gen / (gen + cpu)
	res.GenCPUUsPerOp = gen * 1e6 / float64(ok)
	res.Speed = o.wl.genUs / res.GenCPUUsPerOp
	res.measured = res.Raw.atNominalSpeed(res.Speed, idleRSS)
	if o.traced {
		var on, off, onT, offT float64
		for i, n := range sliceOps {
			d := float64(marks[i+1].t-marks[i].t) / 1e9
			if i%2 == 0 {
				on, onT = on+float64(n), onT+d
			} else {
				off, offT = off+float64(n), offT+d
			}
		}
		if onT > 0 && offT > 0 {
			res.tracedOps, res.untracedOps = on/onT, off/offT
		}
	}
	switch {
	case !s.srv.alive():
		res.Invalid = "sipproxyd exited during the round: " + s.srv.out.String()
	case res.FailRatio > 0.01:
		res.Invalid = fmt.Sprintf("fail_ratio %.4f exceeds 0.01: %v", res.FailRatio, res.FailedBy)
	}
	return res, nil
}
