package main

import (
	"time"

	"juggler/internal/fabric"
	"juggler/internal/sim"
	"juggler/internal/stats"
	"juggler/internal/tcp"
	"juggler/internal/testbed"
	"juggler/internal/units"
	"juggler/internal/workload"
)

// pair_10g: the healthy 10G reorder pair. A vanilla sender feeds a Juggler
// receiver (inseq 52us, ofo 300us, 64 entries, seglist) through the
// NetFPGA delay switch at tau=250us. Traffic is one unpaced bulk
// connection run as a closed loop of 1 MB messages, pairDepth of them
// outstanding, which keeps more data queued than the 4 MB default window
// so the flow stays window-limited; a message's completion time is the
// workload's FCT.
const (
	// pairWarmup outlasts the flow-start transient: on some seeds the
	// build-up phase lets the first packets' reordering reach TCP, the
	// spurious retransmits cut the window, and goodput takes ~300 ms to
	// recover (seed 12 reads 8.7 Gb/s over a window after a 20 ms warm-up,
	// 9.49 after 300 ms).
	pairWarmup = 300 * time.Millisecond
	pairRate   = units.Rate10G
	pairTau    = 250 * time.Microsecond
	pairMsg    = 1 << 20
	pairDepth  = 8
	pairSlice  = 100 * time.Microsecond
)

func pairConfigs() (snd, rcv testbed.HostConfig) {
	snd = testbed.DefaultHostConfig(testbed.OffloadVanilla)
	rcv = testbed.DefaultHostConfig(testbed.OffloadJuggler)
	rcv.Juggler.InseqTimeout = 52 * time.Microsecond
	rcv.Juggler.OfoTimeout = 300 * time.Microsecond
	rcv.Juggler.MaxFlows = 64
	return snd, rcv
}

// buildPair assembles the pair. The plain pass uses
// testbed.NewNetFPGAPair; the other passes replicate it from public
// constructors so timing sinks and replay taps can sit on every link.
func buildPair(p *pass, s *sim.Sim) (snd, rcv *testbed.Host) {
	sndCfg, rcvCfg := pairConfigs()
	if p.mode == modePlain {
		tb := testbed.NewNetFPGAPair(s, pairRate, pairTau, 0, sndCfg, rcvCfg)
		return tb.Sender, tb.Receiver
	}
	sndCfg.LinkRate, rcvCfg.LinkRate = pairRate, pairRate
	snd = testbed.NewHost(s, "sender", sndCfg)
	rcv = testbed.NewHost(s, "receiver", rcvCfg)
	snd.IP, rcv.IP = 0x0a000001, 0x0a000002
	toRcv := fabric.NewPort(s, "fpga->rcv", pairRate, hostProp, fabric.NewDropTail(0), p.ingress(s, rcv, rcvCfg, true))
	delay := fabric.NewDelaySwitch(s, pairTau, p.fabricSink(toRcv))
	snd.ConnectEgress(p.egress(s, delay), hostProp)
	toSnd := fabric.NewPort(s, "rcv->snd", pairRate, hostProp, fabric.NewDropTail(0), p.ingress(s, snd, sndCfg, false))
	rcv.ConnectEgress(p.egress(s, toSnd), 0)
	return snd, rcv
}

func runPair(p *pass, seed int64, window time.Duration) *rep {
	r := &rep{}
	t0 := time.Now()
	s := sim.New(seed)
	p.strict = true // no loss anywhere on the path: delivery must stay in order
	sndH, rcvH := buildPair(p, s)
	sd := &side{s: s, hosts: []*testbed.Host{rcvH}}
	sd.probe(sndH.Egress(), rcvH.Egress())
	snd, rcv := testbed.Connect(sndH, rcvH, tcp.SenderConfig{})
	sd.rcvs, sd.snds = []*tcp.Receiver{rcv}, []*tcp.Sender{snd}
	msgs := workload.NewRPCStream(s, snd, rcv, nil)
	msgs.OnComplete = func() { msgs.Send(pairMsg) }
	for i := 0; i < pairDepth; i++ {
		msgs.Send(pairMsg)
	}
	hookHosts(p, sd, []*testbed.Host{sndH, rcvH}, nil)
	s.RunUntil(sim.Time(pairWarmup))
	r.setup = time.Since(t0)

	fct := stats.NewSampler(4096)
	msgs.Latency = fct
	sd.startWindow()
	a, rt0 := sd.snap(), readRT()
	r.wall = p.drive(s, window, pairSlice, sd.sample)
	r.rt = rt0.delta(readRT())
	sd.windowMetrics(r, a, sd.snap(), window)
	r.layer = append(r.layer, fctMetrics(fct)...)
	r.fctN = fct.N()
	r.executed = s.Executed
	checkTables(r, sd.hosts)
	p.finish(r, sd)
	return r
}
