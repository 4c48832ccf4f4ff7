package main

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/cpumodel"
	"juggler/internal/fabric"
	"juggler/internal/gro"
	"juggler/internal/nic"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
)

// coreReplay re-runs one receiver's receive path: its ingress stream (the
// arrival instant plus a copy of each packet) drives a second nic.NewRX
// with its own cpumodel.New, with core.New behind a timing gro.Offload.
// The stream is fed online into the same simulator, right before the real
// host sees each packet, so the replay's events interleave with the
// receiver's in the same relative order at equal instants and nothing is
// held in memory. The replay counts only if its core.Stats and
// gro.Counters equal the end-to-end receiver's exactly.
type coreReplay struct {
	rx  *nic.RX
	js  []*core.Juggler
	acc *replayAcc
}

// replayAcc accumulates the core replays' work and timings. The replay
// pass steps the simulator one event at a time and classifies each step
// by which replay counters it moved: an arrival (skipped: the real host's
// ingress shares the step), a poll (the NIC's share is the step minus the
// offload's time), or one of core's own timeouts (a step that delivered
// without entering the offload). Steps that touch no replay are the
// end-to-end run's own.
type replayAcc struct {
	offNS, offCalls, delivers, arrivals int64
	pollNS, timerNS                     int64
}

func newCoreReplay(s *sim.Sim, cfg testbed.HostConfig, acc *replayAcc) *coreReplay {
	r := &coreReplay{acc: acc}
	segs := packet.SegPoolFromSim(s)
	deliver := func(seg *packet.Segment) {
		acc.delivers++
		segs.Put(seg)
	}
	r.rx = nic.NewRX(s, cfg.RX, cpumodel.New(s, cfg.Costs), func(int) gro.Offload {
		j := core.New(s, cfg.Juggler, deliver)
		r.js = append(r.js, j)
		return &timedOffload{j: j, acc: acc}
	})
	return r
}

// step runs one event of the replay pass and classifies its time.
func (a *replayAcc) step(s *sim.Sim) {
	before := *a
	t0 := time.Now()
	s.Step()
	d := int64(time.Since(t0))
	switch {
	case a.arrivals != before.arrivals:
		// An arrival: the real host's ingress work, not the replay's.
	case a.offCalls != before.offCalls:
		a.pollNS += d - (a.offNS - before.offNS)
	case a.delivers != before.delivers:
		a.timerNS += d
	}
}

// reset starts the timed window.
func (a *replayAcc) reset() { *a = replayAcc{} }

func (r *coreReplay) stats() (core.Stats, gro.Counters) {
	var st core.Stats
	var c gro.Counters
	for _, j := range r.js {
		st.Add(j.Stats)
		c.Add(j.Counters())
	}
	return st, c
}

// replayTap feeds a copy of each arriving packet to the core replay, then
// the packet itself to the real host ingress.
type replayTap struct {
	r    *coreReplay
	next fabric.Sink
}

func (t *replayTap) Deliver(p *packet.Packet) {
	q := new(packet.Packet)
	*q = *p
	t.r.rx.Deliver(q)
	t.r.acc.arrivals++
	t.next.Deliver(p)
}

// timedOffload times every call into the replay's Juggler.
type timedOffload struct {
	j   *core.Juggler
	acc *replayAcc
}

func (o *timedOffload) Receive(p *packet.Packet) {
	t0 := time.Now()
	o.j.Receive(p)
	o.acc.offNS += int64(time.Since(t0))
	o.acc.offCalls++
}

func (o *timedOffload) ReceiveBatch(b []*packet.Packet) {
	t0 := time.Now()
	o.j.ReceiveBatch(b)
	o.acc.offNS += int64(time.Since(t0))
	o.acc.offCalls++
}

func (o *timedOffload) PollComplete() {
	t0 := time.Now()
	o.j.PollComplete()
	o.acc.offNS += int64(time.Since(t0))
	o.acc.offCalls++
}

func (o *timedOffload) Counters() gro.Counters { return o.j.Counters() }

// tcpReplay re-runs the receivers' TCP processing: every segment the
// DeliverTap sees on a data flow goes into a private tcp.NewReceiver for
// that flow. It counts only if each replay receiver's AcksSent and
// Delivered match the end-to-end receiver's.
type tcpReplay struct {
	s    *sim.Sim
	pool *packet.Pool
	rcvs map[packet.FiveTuple]*tcp.Receiver
	real map[packet.FiveTuple]*tcp.Receiver
	ns   int64
	segs int64
}

func newTCPReplay() *tcpReplay {
	s := sim.New(1)
	return &tcpReplay{s: s, pool: packet.PoolFromSim(s),
		rcvs: map[packet.FiveTuple]*tcp.Receiver{}, real: map[packet.FiveTuple]*tcp.Receiver{}}
}

// watch adds a replay receiver mirroring the end-to-end receiver real.
func (t *tcpReplay) watch(real *tcp.Receiver) {
	t.real[real.Flow()] = real
	t.rcvs[real.Flow()] = tcp.NewReceiver(t.s, real.Flow(), t.pool.Put)
}

// reset starts the timed window.
func (t *tcpReplay) reset() { t.ns, t.segs = 0, 0 }

// observe is installed in each receiver host's DeliverTap chain.
func (t *tcpReplay) observe(seg *packet.Segment) {
	r, ok := t.rcvs[seg.Flow]
	if !ok {
		return
	}
	ooo := seg.OOO // the replay receiver marks the shared segment; restore it
	t0 := time.Now()
	r.OnSegment(seg)
	t.ns += int64(time.Since(t0))
	t.segs++
	seg.OOO = ooo
}

// replayMetrics checks both replay equalities and turns the replays'
// window timings into per-layer values.
func replayMetrics(r *rep, p *pass, sd *side) {
	for i, c := range p.cores {
		h := sd.hosts[i]
		st, cn := c.stats()
		wantSt, wantCn := h.JugglerStats(), h.OffloadCounters()
		r.check(st == wantSt && cn == wantCn, "core replay %s: stats %+v counters %+v, end-to-end %+v %+v",
			h.Name, st, cn, wantSt, wantCn)
	}
	for flow, real := range p.tcp.real {
		rp := p.tcp.rcvs[flow]
		r.check(rp.Stats.AcksSent == real.Stats.AcksSent && rp.Delivered() == real.Delivered(),
			"tcp replay %v: acks %d delivered %d, end-to-end %d %d", flow,
			rp.Stats.AcksSent, rp.Delivered(), real.Stats.AcksSent, real.Delivered())
	}
	a, n := p.acc, float64(p.acc.arrivals)
	r.timing = append(r.timing,
		metric{"core.ns_per_pkt", "ns", ratio(float64(a.offNS), n)},
		metric{"core.timer_ns_per_pkt", "ns", ratio(float64(a.timerNS), n)},
		metric{"nic.poll_ns_per_pkt", "ns", ratio(float64(a.pollNS), n)},
		metric{"tcp.rcv_ns_per_seg", "ns", ratio(float64(p.tcp.ns), float64(p.tcp.segs))},
	)
}
