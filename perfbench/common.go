package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"juggler/internal/chaos"
	"juggler/internal/core"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/testbed"
	"juggler/internal/units"
)

// hostProp mirrors the testbed's host-to-switch propagation delay, so a
// topology assembled here from public constructors matches the testbed's.
// The traced-vs-untraced equality check fails if the two ever drift.
const hostProp = 200 * time.Nanosecond

// mode selects how one pass of a workload is built and driven.
type mode int

const (
	// modePlain builds through the testbed's own topology helpers and
	// drives the sim with RunUntil: the pass every end-to-end metric comes
	// from.
	modePlain mode = iota
	// modeTraced assembles the same topology from public constructors with
	// timing sinks spliced in and drives the window with Sim.Step under
	// root spans.
	modeTraced
	// modeReplay assembles the topology like modeTraced, without timing
	// sinks, and streams each receiver's ingress and delivered segments
	// into the core and TCP replays.
	modeReplay
)

// pass is one run of a workload in one mode.
type pass struct {
	mode   mode
	tr     *tracer        // modeTraced
	chaos  *chaos.Checker // modeTraced: taps every host's egress and SegmentTap
	cores  []*coreReplay  // modeReplay: one per receiver host
	acc    *replayAcc     // modeReplay: the core replays' shared timings
	tcp    *tcpReplay     // modeReplay
	strict bool           // chaos order invariant: Juggler must absorb all reordering
	start  sim.Time       // start of the timed window
}

// fabricSink wraps a fabric sink with a timing span in the traced pass.
func (p *pass) fabricSink(next fabric.Sink) fabric.Sink {
	if p.mode == modeTraced {
		return &timedSink{t: p.tr, k: spFabric, next: next}
	}
	return next
}

// egress wraps a host's transmit sink: in the traced pass the chaos
// checker taps it (ground-truth sent ranges) in front of the timed fabric
// sink.
func (p *pass) egress(s *sim.Sim, next fabric.Sink) fabric.Sink {
	next = p.fabricSink(next)
	if p.mode != modeTraced {
		return next
	}
	if p.chaos == nil {
		p.chaos = chaos.NewChecker(s, chaos.Config{StrictOrder: p.strict, MaxViolations: 1 << 16})
	}
	return &timedSink{t: p.tr, k: spChaosTX, next: p.chaos.TapTX(next)}
}

// ingress wraps host h's RX sink: timed in the traced pass; on a receiver
// host in the replay pass it streams each arrival into a core replay.
func (p *pass) ingress(s *sim.Sim, h *testbed.Host, cfg testbed.HostConfig, receiver bool) fabric.Sink {
	switch {
	case p.mode == modeTraced:
		return &timedSink{t: p.tr, k: spNIC, next: h.Sink()}
	case p.mode == modeReplay && receiver:
		if p.acc == nil {
			p.acc = &replayAcc{}
		}
		r := newCoreReplay(s, cfg, p.acc)
		p.cores = append(p.cores, r)
		return &replayTap{r: r, next: h.Sink()}
	}
	return h.Sink()
}

// span runs fn under a span of kind k in the traced pass.
func (p *pass) span(k spanKind, fn func()) {
	if p.tr == nil {
		fn()
		return
	}
	p.tr.begin(k)
	fn()
	p.tr.end()
}

// drive advances s by d as the timed window and returns its wall time. A
// no-op sentinel event at the window's end is scheduled in every mode, so
// Sim.Executed is identical across modes; it also bounds the Step loops of
// the traced and replay passes, which cannot peek at the next event's
// time. The plain pass runs in slices of sliceLen and calls sample between
// slices.
func (p *pass) drive(s *sim.Sim, d, sliceLen time.Duration, sample func()) time.Duration {
	p.start = s.Now()
	end := p.start.Add(d)
	s.ScheduleAt(end, func() {})
	t0 := time.Now()
	switch {
	case p.tr != nil:
		p.tr.on = true
		l0 := p.tr.now()
		p.tr.last = l0
		for s.Now() < end {
			p.tr.step(s)
		}
		p.tr.loopNS += p.tr.now() - l0
		p.tr.on = false
	case p.mode == modeReplay:
		p.acc.reset()
		p.tcp.reset()
		for s.Now() < end {
			p.acc.step(s)
		}
	default:
		for t := s.Now(); t < end; {
			t = min(t.Add(sliceLen), end)
			s.RunUntil(t)
			sample()
		}
	}
	wall := time.Since(t0)
	s.RunUntil(end) // events at the end instant queued behind the sentinel
	return wall
}

// metric is one named value with its unit.
type metric struct {
	name, unit string
	value      float64
}

// rep is the result of one pass.
type rep struct {
	setup, wall time.Duration
	mss         float64  // MSS delivered in the timed window
	fctN        int      // completion-time samples behind workload.fct_us
	executed    uint64   // Sim.Executed when the pass ended
	sim         []metric // simulated end-to-end values: exact for a seed
	layer       []metric // per-layer values: counts and simulated values
	timing      []metric // per-layer host timings (traced and replay passes)
	rt          rtDelta

	attempted, failed int64
	notes             []string // failed checks
	info              []string // observations that are not failures
}

// check records one output check as an attempted operation.
func (r *rep) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// ops records n operations of which bad failed (RPCs shed or unfinished).
func (r *rep) ops(n, bad int64, what string) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d of %d %s failed", bad, n, what))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// rtDelta is the Go runtime's work over the timed window.
type rtDelta struct {
	allocs, bytes, gcCycles, gcCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type rtSnap [4]float64

func readRT() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var out rtSnap
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (a rtSnap) delta(b rtSnap) rtDelta {
	return rtDelta{allocs: b[0] - a[0], bytes: b[1] - a[1], gcCycles: b[2] - a[2], gcCPU: b[3] - a[3]}
}

// runtimeMetrics converts the window's runtime work into per-layer values.
func (r *rep) runtimeMetrics() []metric {
	return []metric{
		{"runtime.allocs_per_mss", "count", ratio(r.rt.allocs, r.mss)},
		{"runtime.alloc_bytes_per_mss", "B", ratio(r.rt.bytes, r.mss)},
		{"runtime.gc_cycles", "count", r.rt.gcCycles},
		{"runtime.gc_cpu_frac", "frac", ratio(r.rt.gcCPU, r.wall.Seconds())},
	}
}

// rssPeakMiB returns the process's peak resident set size.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// side is the receive side of the pair and Clos workloads: the receiver
// hosts, their data receivers and the senders feeding them, plus the
// fabric ports whose occupancy is probed.
type side struct {
	s     *sim.Sim
	hosts []*testbed.Host
	rcvs  []*tcp.Receiver
	snds  []*tcp.Sender
	ports []*fabric.Port
	hold  fleet.QuantileSketch // ns from HopGROBuffer to the SegmentTap

	pendingPeak, tablePeak, bufPeak int
}

// sideSnap is a cumulative snapshot of the receive side's counters.
type sideSnap struct {
	executed                 uint64
	delivered, rxPkts, polls int64
	batchN                   int64
	batchSum                 float64
	off                      gro.Counters
	st                       core.Stats
	rxBusy, appBusy          time.Duration
	backlogDrops             int64
	segsIn, oooSegs, acks    int64
	retx                     int64
	drops                    int64
}

func (sd *side) snap() sideSnap {
	var x sideSnap
	x.executed = sd.s.Executed
	for _, r := range sd.rcvs {
		x.delivered += r.Delivered()
		x.segsIn += r.Stats.SegmentsIn
		x.oooSegs += r.Stats.OOOSegments
		x.acks += r.Stats.AcksSent
	}
	for _, snd := range sd.snds {
		x.retx += snd.Stats.RetransPackets
	}
	for _, h := range sd.hosts {
		x.rxPkts += h.RX.RxPackets
		for i := 0; i < h.RX.NumQueues(); i++ {
			q := h.RX.Queue(i)
			x.polls += q.Polls
			x.batchN += q.BatchSizes.N()
			x.batchSum += q.BatchSizes.Mean() * float64(q.BatchSizes.N())
		}
		x.off.Add(h.OffloadCounters())
		x.st.Add(h.JugglerStats())
		for _, c := range h.CPU.RXCores() {
			x.rxBusy += c.BusyTotal()
		}
		x.appBusy += h.CPU.App.BusyTotal()
		x.backlogDrops += h.DroppedSegs
	}
	for _, pt := range sd.ports {
		x.drops += pt.DroppedDown
		if q, ok := pt.Queue().(*fabric.DropTail); ok {
			x.drops += q.Drops
		}
	}
	return x
}

// probe installs an occupancy probe on every port (sampled at each
// enqueue, no events).
func (sd *side) probe(ports ...*fabric.Port) {
	for _, pt := range ports {
		if pt.Probe == nil {
			pt.Probe = &fabric.OccupancyProbe{}
		}
		sd.ports = append(sd.ports, pt)
	}
}

// tapHold records the offload hold of every data segment; install it as
// (part of) each receiver host's SegmentTap.
func (sd *side) tapHold(seg *packet.Segment) {
	if seg.Bytes == 0 || seg.SkipStamps || seg.Stamps[packet.HopGROBuffer] == 0 {
		return
	}
	sd.hold.Observe(int64(sd.s.Now() - seg.Stamps[packet.HopGROBuffer]))
}

// startWindow resets the sampled peaks at the start of the timed window.
func (sd *side) startWindow() {
	sd.pendingPeak, sd.tablePeak, sd.bufPeak = 0, 0, 0
	sd.hold.Reset()
	for _, pt := range sd.ports {
		pt.Probe.MaxBytes = 0
	}
}

// sample updates the sampled peaks between slices.
func (sd *side) sample() {
	sd.pendingPeak = max(sd.pendingPeak, sd.s.Pending())
	t, b := 0, 0
	for _, h := range sd.hosts {
		t += h.JugglerTableLen()
		b += h.JugglerBufferedBytes()
	}
	sd.tablePeak = max(sd.tablePeak, t)
	sd.bufPeak = max(sd.bufPeak, b)
}

// windowMetrics derives the receive side's simulated end-to-end and
// per-layer values from the window's start and end snapshots.
func (sd *side) windowMetrics(r *rep, a, b sideSnap, window time.Duration) {
	r.mss = float64(b.delivered-a.delivered) / units.MSS
	segs := float64(b.off.Segments - a.off.Segments)
	pkts := float64(b.off.Packets - a.off.Packets)
	busy := b.rxBusy - a.rxBusy + b.appBusy - a.appBusy
	r.sim = append(r.sim,
		metric{"sim_goodput_gbps", "Gb/s", float64(b.delivered-a.delivered) * 8 / window.Seconds() / 1e9},
		metric{"sim_mtus_per_segment", "count", ratio(pkts, segs)},
		metric{"sim_cpu_ns_per_mss", "ns", ratio(float64(busy), r.mss)},
	)
	qpeak := 0
	for _, pt := range sd.ports {
		qpeak = max(qpeak, pt.Probe.MaxBytes)
	}
	hosts := float64(len(sd.hosts)) * window.Seconds() * 1e9
	r.layer = append(r.layer,
		metric{"sim.events_per_mss", "count", ratio(float64(b.executed-a.executed), r.mss)},
		metric{"sim.pending_peak", "count", float64(sd.pendingPeak)},
		metric{"fabric.pkts_per_mss", "count", ratio(float64(b.rxPkts-a.rxPkts), r.mss)},
		metric{"fabric.queue_peak_kb", "KiB", float64(qpeak) / 1024},
		metric{"fabric.drops", "count", float64(b.drops - a.drops)},
		metric{"nic.pkts_per_poll", "count", ratio(b.batchSum-a.batchSum, float64(b.batchN-a.batchN))},
		metric{"nic.polls_per_mss", "count", ratio(float64(b.polls-a.polls), r.mss)},
		metric{"core.ooo_work_per_pkt", "count", ratio(float64(b.off.OOOWork-a.off.OOOWork), pkts)},
		metric{"core.flush_ofo_frac", "frac", ofoFrac(a.st, b.st)},
		metric{"core.hold_us.p50", "us", float64(sd.hold.P50()) / 1e3},
		metric{"core.hold_us.p99", "us", float64(sd.hold.P99()) / 1e3},
		metric{"core.table_peak", "count", float64(sd.tablePeak)},
		metric{"core.buffered_peak_kb", "KiB", float64(sd.bufPeak) / 1024},
		metric{"core.evictions", "count", float64(evictions(b.st) - evictions(a.st))},
		metric{"cpumodel.rx_util", "frac", ratio(float64(b.rxBusy-a.rxBusy), hosts)},
		metric{"cpumodel.app_util", "frac", ratio(float64(b.appBusy-a.appBusy), hosts)},
		metric{"cpumodel.backlog_drops", "count", float64(b.backlogDrops - a.backlogDrops)},
		metric{"tcp.retx_per_kmss", "count", 1000 * ratio(float64(b.retx-a.retx), r.mss)},
		metric{"tcp.ooo_seg_frac", "frac", ratio(float64(b.oooSegs-a.oooSegs), float64(b.segsIn-a.segsIn))},
		metric{"tcp.acks_per_mss", "count", ratio(float64(b.acks-a.acks), r.mss)},
	)
}

// ofoFrac is the share of flushes between two snapshots that ofo_timeout
// forced: holds that ended in a timeout.
func ofoFrac(a, b core.Stats) float64 {
	flushes := func(x core.Stats) int64 {
		return x.FlushEvent + x.FlushInseqTimeout + x.FlushOfoTimeout + x.FlushEvict
	}
	return ratio(float64(b.FlushOfoTimeout-a.FlushOfoTimeout), float64(flushes(b)-flushes(a)))
}

func evictions(x core.Stats) int64 { return x.EvictionsInactive + x.EvictionsActive + x.EvictionsLoss }

// checkTables audits every Juggler instance on the given hosts.
func checkTables(r *rep, hosts []*testbed.Host) {
	for _, h := range hosts {
		for i, j := range h.Jugglers {
			err := j.CheckInvariants()
			r.check(err == nil, "%s juggler %d: %v", h.Name, i, err)
		}
	}
}

// finish adds the traced and replay passes' checks and timings. The chaos
// checker's order invariant is enforced from the start of the timed
// window: every connection opens at t=0, and reordering of a flow's first
// packets reaches TCP by design while Juggler's build-up phase learns
// seq_next (§4, Remark 1); that happens in the warm-up and is reported,
// not failed. Conservation is enforced over the whole run.
func (p *pass) finish(r *rep, sd *side) {
	if c := p.chaos; c != nil {
		vs := c.Violations()
		bad := c.Total() - int64(len(vs)) // beyond the retention bound: unknown, so failed
		var early []chaos.Violation
		for _, v := range vs {
			if v.Invariant == chaos.InvOrder && v.At < p.start {
				early = append(early, v)
			} else {
				bad++
			}
		}
		r.check(bad == 0 && c.SegmentsSeen > 0, "chaos checker (%d segments): %d violations, first %v",
			c.SegmentsSeen, bad, vs[:min(len(vs), 3)])
		if len(early) > 0 {
			r.info = append(r.info, fmt.Sprintf("chaos: %d order violations during warm-up (flow-start build-up), first %v",
				len(early), early[0]))
		}
	}
	if p.mode == modeReplay {
		replayMetrics(r, p, sd)
	}
}

// hookHosts installs the per-host taps every pass shares (the offload-hold
// sketch on receivers, the workload's DeliverTap) plus the traced pass's
// chaos checker and the replay pass's TCP replay. deliver, when non-nil,
// holds host i's workload DeliverTap.
func hookHosts(p *pass, sd *side, hosts []*testbed.Host, deliver []func(*packet.Segment)) {
	if p.mode == modeReplay {
		p.tcp = newTCPReplay()
		for _, rc := range sd.rcvs {
			p.tcp.watch(rc)
		}
	}
	for i, h := range hosts {
		receiver := slices.Contains(sd.hosts, h)
		var segTaps, delTaps []func(*packet.Segment)
		if receiver {
			segTaps = append(segTaps, p.timed(spBenchTap, sd.tapHold))
		}
		if p.chaos != nil {
			segTaps = append(segTaps, p.timed(spChaosSeg, p.chaos.ObserveSegment))
		}
		if deliver != nil {
			delTaps = append(delTaps, p.timed(spFleetObserve, deliver[i]))
		}
		if receiver && p.tcp != nil {
			delTaps = append(delTaps, p.tcp.observe)
		}
		h.SegmentTap = chain(segTaps)
		h.DeliverTap = chain(delTaps)
	}
}

// timed wraps a segment tap in a span of kind k in the traced pass.
func (p *pass) timed(k spanKind, fn func(*packet.Segment)) func(*packet.Segment) {
	if p.tr == nil {
		return fn
	}
	return func(seg *packet.Segment) {
		p.tr.begin(k)
		fn(seg)
		p.tr.end()
	}
}

func chain(fns []func(*packet.Segment)) func(*packet.Segment) {
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	}
	return func(seg *packet.Segment) {
		for _, fn := range fns {
			fn(seg)
		}
	}
}
