package main

import (
	"fmt"
	"time"

	"juggler/internal/fabric"
	"juggler/internal/lb"
	"juggler/internal/packet"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/telemetry/fleet"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// clos_spray: the fleet experiment's cluster plus background load. Three
// senders under ToR 0 and three receivers under ToR 1 of a 2x2 40G Clos
// with 2 MB drop-tail queues and per-packet spraying; each pair carries
// one bulk flow capped at a 256 KB window and one persistent connection
// multiplexing open-loop Poisson 4 KB RPCs (20k/s in total, at most 8
// outstanding per connection). A 15 Gb/s Poisson background pair from
// ToR 0 to ToR 1 loads the sending ToR's uplinks to about half (§5.1.1).
const (
	closWarmup  = 50 * time.Millisecond
	closPairs   = 3
	closRPC     = 4096
	closRPCRate = 20_000
	closBG      = 15 * units.Gbps
	closDrain   = 10 * time.Millisecond
	closSlice   = 100 * time.Microsecond
)

func closConfig(s *sim.Sim) fabric.ClosConfig {
	return fabric.ClosConfig{
		NumToRs: 2, NumSpines: 2, LinkRate: units.Rate40G,
		Prop: 200 * time.Nanosecond, QueueBytes: 2 * units.MB,
		UplinkLB: lb.NewPerPacket(s, true),
	}
}

// buildClos assembles the cluster: senders, receivers, then the
// background pair. The plain pass uses the testbed's own helpers; the other
// passes replicate AddHostVia and AddBackgroundPair from public
// constructors so timing sinks sit on every host link.
func buildClos(p *pass, s *sim.Sim, cfg testbed.HostConfig) (tb *testbed.ClosTestbed, bg *fabric.Port) {
	tb = testbed.NewClosTestbed(s, closConfig(s))
	add := func(tor int, receiver bool) {
		if p.mode == modePlain {
			tb.AddHost(tor, cfg)
			return
		}
		h := testbed.NewHost(s, fmt.Sprintf("h%d-%d", tor, len(tb.Hosts)), cfg)
		ip, egress := tb.Clos.AttachHost(tor, p.ingress(s, h, cfg, receiver))
		h.IP = ip
		h.ConnectEgress(p.egress(s, egress), hostProp)
		tb.Hosts = append(tb.Hosts, h)
	}
	for i := 0; i < closPairs; i++ {
		add(0, false)
	}
	for i := 0; i < closPairs; i++ {
		add(1, true)
	}
	if p.mode == modePlain {
		return tb, tb.AddBackgroundPair(0, 1, closBG).Port
	}
	dstIP, _ := tb.Clos.AttachHost(1, &testbed.CounterSink{})
	srcIP, egress := tb.Clos.AttachHost(0, &testbed.CounterSink{})
	bg = fabric.NewPort(s, fmt.Sprintf("bg%x", srcIP), tb.Clos.UplinkPorts(0)[0].Rate(), hostProp,
		fabric.NewDropTail(0), p.fabricSink(egress))
	flow := packet.FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: 7, DstPort: 7, Proto: packet.ProtoUDP}
	workload.NewBackground(s, portSender{bg}, flow, closBG).Start()
	return tb, bg
}

// portSender adapts a Port to the background source's output.
type portSender struct{ port *fabric.Port }

func (w portSender) SendRaw(p *packet.Packet) { w.port.Send(p) }

func runClos(p *pass, seed int64, window time.Duration) *rep {
	r := &rep{}
	t0 := time.Now()
	s := sim.New(seed)
	// Sprayed paths under background load can reorder beyond ofo_timeout;
	// Juggler then flushes out of order by design, a leak tcp.ooo_seg_frac
	// measures. The checker enforces conservation here, not order.
	p.strict = false
	cfg := testbed.DefaultHostConfig(testbed.OffloadJuggler)
	tb, bg := buildClos(p, s, cfg)
	senders, receivers := tb.Hosts[:closPairs], tb.Hosts[closPairs:]
	sd := &side{s: s, hosts: receivers}
	sd.probe(bg)
	for _, h := range tb.Hosts {
		sd.probe(h.Egress(), tb.Clos.DownlinkPort(h.IP))
	}
	for t := range tb.Clos.ToRs {
		sd.probe(tb.Clos.UplinkPorts(t)...)
	}
	for _, sp := range tb.Clos.Spines {
		for _, h := range receivers[:1] {
			sd.probe(sp.Ports(h.IP)...) // spine -> ToR 1
		}
		sd.probe(sp.Ports(senders[0].IP)...) // spine -> ToR 0
	}

	agg := fleet.NewAggregator(fleet.Config{Cadence: 250 * time.Microsecond, SLO: 250 * time.Microsecond})
	taps := make([]func(*packet.Segment), len(tb.Hosts))
	for i, h := range tb.Hosts {
		tor := 0
		if i >= closPairs {
			tor = 1
		}
		lane := agg.AddHost(h.Name, tor, 1).Lane(0)
		taps[i] = lane.ObserveDelivery
		lane.SetSample(func(cn *fleet.Counters) { p.span(spFleetSample, func() { sampleHost(cn, h) }) })
		lane.Start(s)
	}

	scfg := tcp.SenderConfig{MaxCwnd: 256 * units.KB}
	var streams []*workload.RPCStream
	for i := 0; i < closPairs; i++ {
		snd, rcv := testbed.Connect(senders[i], receivers[i], scfg)
		snd.SetInfinite()
		snd.MaybeSend()
		rsnd, rrcv := testbed.Connect(senders[i], receivers[i], scfg)
		st := workload.NewRPCStream(s, rsnd, rrcv, nil)
		st.OnLatency = func(d time.Duration) { agg.ObserveFCT(int64(d)) }
		streams = append(streams, st)
		sd.rcvs = append(sd.rcvs, rcv, rrcv)
		sd.snds = append(sd.snds, snd, rsnd)
	}
	gen := workload.NewPoissonRPCGen(s, streams, closRPC, closRPCRate)
	gen.MaxOutstanding = 8
	gen.Start()
	hookHosts(p, sd, tb.Hosts, taps)
	s.RunUntil(sim.Time(closWarmup))
	r.setup = time.Since(t0)

	fct := stats.NewSampler(16384)
	gen.SwapSampler(fct)
	gen0, shed0 := gen.Generated, gen.Shed
	sd.startWindow()
	a, rt0 := sd.snap(), readRT()
	r.wall = p.drive(s, window, closSlice, sd.sample)
	r.rt = rt0.delta(readRT())
	sd.windowMetrics(r, a, sd.snap(), window)

	// Stop generating and let the window's RPCs finish; any still
	// outstanding after the drain, and any shed, count as failed.
	gen.Stop()
	generated, shed := gen.Generated-gen0, gen.Shed-shed0
	s.RunUntil(s.Now().Add(closDrain))
	unfinished := int64(0)
	for _, st := range streams {
		unfinished += int64(st.Outstanding())
	}
	r.ops(generated, shed+unfinished, "RPCs (shed or unfinished)")
	agg.StopAll()
	r.layer = append(r.layer, fctMetrics(fct)...)
	r.fctN = fct.N()
	r.executed = s.Executed
	checkTables(r, tb.Hosts)
	p.finish(r, sd)
	return r
}

// sampleHost is the fleet probe's cadence sample, as the fleet experiment
// wires it.
func sampleHost(cn *fleet.Counters, h *testbed.Host) {
	cn.BufferedBytes = int64(h.JugglerBufferedBytes())
	cn.SegPoolLive = h.SegPoolLive()
	cn.TableFlows = int64(h.JugglerTableLen())
	cn.Retunes = h.AdaptRetunes()
	st := h.JugglerStats()
	cn.Retransmissions = st.Retransmissions
	cn.OfoHolds = st.FlushOfoTimeout
	cn.Drops = h.DroppedSegs
}

// fctMetrics reports message completion times (Fig. 20): generation to the
// last byte delivered in order.
func fctMetrics(fct *stats.Sampler) []metric {
	return []metric{
		{"workload.fct_us.p50", "us", fct.Median() * 1e6},
		{"workload.fct_us.p99", "us", fct.P99() * 1e6},
	}
}
