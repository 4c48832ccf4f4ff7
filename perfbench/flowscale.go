package main

import (
	"time"

	"juggler/internal/core"
	"juggler/internal/cpumodel"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/units"
)

// flowscale_100k: core.Juggler driven directly, with no NIC, fabric or
// TCP, on the flowscale experiment's schedule draw for draw: one MSS per
// flow per 20us round, ~25% of packets deferred by two rounds, ~2%
// dropped (permanent holes that go through ofo expiry and loss recovery),
// PollComplete every 10us, inseq 15us, ofo 50us, a table sized to the
// flow count. Each flow's packets form one message (PSH on the last), so
// the message completion time is the last delivery of the flow's bytes.
const (
	fsInterval = 20 * time.Microsecond
	fsPoll     = 10 * time.Microsecond
	fsRounds   = 16
	fsSlice    = 10 * time.Microsecond
)

func runFlowScale(p *pass, seed int64, flows int) *rep {
	r := &rep{}
	t0 := time.Now()
	s := sim.New(seed)
	pool := packet.SegPoolFromSim(s)
	cfg := core.Config{InseqTimeout: 15 * time.Microsecond, OfoTimeout: 50 * time.Microsecond, MaxFlows: flows}
	costs := cpumodel.DefaultCosts()
	cpu := cpumodel.New(s, costs)

	delivered := 0
	var appCost time.Duration
	var hold fleet.QuantileSketch
	last := make([]sim.Time, flows) // last delivery instant per flow
	j := core.New(s, cfg, func(seg *packet.Segment) {
		delivered += seg.Bytes
		last[flowIndex(seg.Flow)] = s.Now()
		hold.Observe(int64(s.Now() - seg.Stamps[packet.HopGROBuffer]))
		// Modelled app-core cost as testbed.Host charges it: the segment
		// and the one ACK TCP sends for it.
		appCost += cpu.AppSegmentCost(seg.Bytes, seg.Pkts, false) + costs.AppPerACKSent
		pool.Put(seg)
	})

	polls := int64(0)
	poll := sim.NewTicker(s, fsPoll, func() {
		polls++
		p.span(spCorePoll, j.PollComplete)
	})
	recv := j.Receive
	if p.tr != nil {
		recv = func(pk *packet.Packet) {
			p.tr.begin(spCoreReceive)
			j.Receive(pk)
			p.tr.end()
		}
	}
	poll.Start()

	rng := s.Rand()
	sent := 0
	lateDue := make([]int, flows) // round+1 a deferred packet arrives in (0: none)
	lateSeq := make([]uint32, flows)
	send := func(f int, seq uint32, last bool) {
		ft := flowTuple(f)
		pk := packet.Packet{
			Flow: ft, FlowHash: ft.Hash(0),
			Seq: 1 + seq*units.MSS, PayloadLen: units.MSS,
			Flags: packet.FlagACK,
		}
		if last {
			pk.Flags |= packet.FlagPSH
		}
		packet.Stamp(&pk.Stamps, packet.HopGROBuffer, s.Now())
		sent += pk.PayloadLen
		recv(&pk)
	}
	for rd := 0; rd < fsRounds; rd++ {
		rd := rd
		s.Schedule(time.Duration(rd)*fsInterval, func() {
			p.span(spBenchRound, func() {
				for f := 0; f < flows; f++ {
					if lateDue[f] == rd+1 {
						lateDue[f] = 0
						send(f, lateSeq[f], false)
					}
					d := rng.Intn(100)
					switch {
					case d < 2 && rd < fsRounds-2:
						// Dropped: the flow's hole only clears via ofo expiry.
					case d < 27 && rd < fsRounds-2:
						lateDue[f] = rd + 2 + 1
						lateSeq[f] = uint32(rd)
					default:
						send(f, uint32(rd), rd == fsRounds-1)
					}
				}
			})
		})
	}
	// Warm-up: round 0, which inserts every flow into the table and fills
	// the entry and segment free lists. The window starts just before
	// round 1 and runs to 1 ms after the last round.
	s.RunUntil(sim.Time(fsInterval) - 1)
	r.setup = time.Since(t0)

	tablePeak, bufPeak, pendingPeak := 0, 0, 0
	window := time.Duration(fsRounds-1)*fsInterval + time.Millisecond + 1
	delivered0, executed0, polls0, app0 := delivered, s.Executed, polls, appCost
	st0, c0 := j.Stats, j.Counters()
	hold.Reset()
	rt0 := readRT()
	r.wall = p.drive(s, window, fsSlice, func() {
		tablePeak = max(tablePeak, j.TableLen())
		bufPeak = max(bufPeak, j.BufferedBytes())
		pendingPeak = max(pendingPeak, s.Pending())
	})
	r.rt = rt0.delta(readRT())
	poll.Stop()
	bytes, events, nPolls, app := delivered-delivered0, s.Executed-executed0, polls-polls0, appCost-app0
	st, c := j.Stats, j.Counters()
	pkts, segs, ooo := c.Packets-c0.Packets, c.Segments-c0.Segments, c.OOOWork-c0.OOOWork
	j.Flush()

	r.check(delivered == sent, "flowscale: delivered %d of %d bytes", delivered, sent)
	err := j.CheckInvariants()
	r.check(err == nil, "flowscale juggler: %v", err)
	r.executed = s.Executed

	r.mss = float64(bytes) / units.MSS
	fct := make([]float64, flows)
	for f, at := range last {
		fct[f] = float64(at) / 1e3 // every flow's message starts at t=0
	}
	rxCost := cpu.RXPollCost(int(pkts), int(ooo), int(segs))
	r.sim = []metric{
		{"sim_goodput_gbps", "Gb/s", float64(bytes) * 8 / window.Seconds() / 1e9},
		{"sim_mtus_per_segment", "count", ratio(float64(pkts), float64(segs))},
		{"sim_cpu_ns_per_mss", "ns", ratio(float64(rxCost+app), r.mss)},
	}
	r.fctN = flows
	r.layer = []metric{
		{"sim.events_per_mss", "count", ratio(float64(events), r.mss)},
		{"sim.pending_peak", "count", float64(pendingPeak)},
		{"workload.fct_us.p50", "us", quantile(fct, 0.5)},
		{"workload.fct_us.p99", "us", quantile(fct, 0.99)},
		{"nic.pkts_per_poll", "count", ratio(float64(pkts), float64(nPolls))},
		{"nic.polls_per_mss", "count", ratio(float64(nPolls), r.mss)},
		{"core.ooo_work_per_pkt", "count", ratio(float64(ooo), float64(pkts))},
		{"core.flush_ofo_frac", "frac", ofoFrac(st0, st)},
		{"core.hold_us.p50", "us", float64(hold.P50()) / 1e3},
		{"core.hold_us.p99", "us", float64(hold.P99()) / 1e3},
		{"core.table_peak", "count", float64(tablePeak)},
		{"core.buffered_peak_kb", "KiB", float64(bufPeak) / 1024},
		{"core.evictions", "count", float64(evictions(st) - evictions(st0))},
	}
	if p.tr != nil {
		n := float64(pkts)
		r.timing = append(r.timing,
			metric{"core.ns_per_pkt", "ns", ratio(float64(p.tr.self[spCoreReceive]+p.tr.self[spCorePoll]), n)},
			metric{"core.timer_ns_per_pkt", "ns", ratio(float64(p.tr.leafRootNS), n)},
		)
	}
	return r
}

// flowTuple is flow f's five-tuple, as the flowscale experiment numbers
// them.
func flowTuple(f int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: uint32(f/65000) + 1, DstIP: 9,
		SrcPort: uint16(f % 65000), DstPort: 5001, Proto: packet.ProtoTCP,
	}
}

func flowIndex(ft packet.FiveTuple) int { return int(ft.SrcIP-1)*65000 + int(ft.SrcPort) }
