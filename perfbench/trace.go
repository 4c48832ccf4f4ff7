package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"juggler/internal/fabric"
	"juggler/internal/packet"
	"juggler/internal/sim"
)

// spanKind names a traced boundary. Every kind but spStep is a child span
// the benchmark records around a call into one layer's public entry point;
// spStep is the root span around one Sim.Step.
type spanKind uint8

const (
	spStep         spanKind = iota // one simulator event
	spFabric                       // fabric.Sink.Deliver into a switch, delay line or port
	spNIC                          // host ingress RX.Deliver
	spChaosTX                      // chaos.Checker TapTX (NoteSent)
	spChaosSeg                     // chaos.Checker ObserveSegment
	spBenchTap                     // the benchmark's own SegmentTap bookkeeping
	spFleetObserve                 // fleet.LaneProbe.ObserveDelivery
	spFleetSample                  // fleet SetSample callback
	spBenchRound                   // flowscale round loop (packet generation)
	spCoreReceive                  // core.Juggler.Receive called by the flowscale round loop
	spCorePoll                     // core.Juggler.PollComplete called by the flowscale poll ticker
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sim.step", "fabric.deliver", "nic.rx_deliver", "chaos.tap_tx", "chaos.observe",
	"bench.tap", "fleet.observe", "fleet.sample", "bench.round", "core.receive", "core.poll_complete",
}

// span is one recorded interval, in ns since the tracer started.
type span struct {
	start, end int64
	parent     int32 // index into tracer.spans, -1 for a root
	kind       spanKind
}

// openSpan is a span whose end has not been seen yet.
type openSpan struct {
	idx      int32 // slot in tracer.spans, -1 when past the storage cap
	kind     spanKind
	start    int64
	child    int64 // summed duration of direct children
	hasChild bool
}

// maxStoredSpans caps the spans kept for the Chrome trace file; the
// per-kind sums below cover every span regardless.
const maxStoredSpans = 1 << 18

// tracer records spans in memory. Self time is a span's duration minus its
// direct children's durations, so the self times of all kinds sum exactly
// to the summed root (step) durations.
type tracer struct {
	on     bool // spans are recorded only inside the timed window
	base   time.Time
	spans  []span
	stack  []openSpan
	calls  [numSpanKinds]int64
	total  [numSpanKinds]int64
	self   [numSpanKinds]int64
	stored int64

	// leafRootNS sums root spans that contained no child span: events no
	// wrapper saw (timers, tx completions, CPU-model queues).
	leafRootNS int64
	// loopNS is the wall time of the stepping loop that produced the roots;
	// last is the end of the latest root.
	loopNS, last int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(k spanKind) {
	if t.on {
		t.push(k, t.now())
	}
}

// push opens a span of kind k that started at st.
func (t *tracer) push(k spanKind, st int64) {
	idx := int32(-1)
	if len(t.spans) < maxStoredSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: st, parent: parent, kind: k})
	}
	t.stack = append(t.stack, openSpan{idx: idx, kind: k, start: st})
}

func (t *tracer) end() {
	if t.on {
		t.pop()
	}
}

// pop closes the innermost open span and returns its end.
func (t *tracer) pop() int64 {
	e := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := e - o.start
	t.calls[o.kind]++
	t.total[o.kind] += d
	t.self[o.kind] += d - o.child
	if o.idx >= 0 {
		t.spans[o.idx].end = e
		t.stored++
	}
	if n > 0 {
		p := &t.stack[n-1]
		p.child += d
		p.hasChild = true
	} else if !o.hasChild {
		t.leafRootNS += d
	}
	return e
}

// step executes one simulator event under a root span. Each root starts
// where the previous one ended, so the roots tile the stepping loop and the
// tracer's own bookkeeping between events is charged to them too: the self
// times of all kinds add up to the loop's whole wall time.
func (t *tracer) step(s *sim.Sim) {
	t.push(spStep, t.last)
	s.Step()
	t.last = t.pop()
}

// rootNS is the summed duration of all root spans: the traced step time.
func (t *tracer) rootNS() int64 { return t.total[spStep] }

// frac returns kind k's self time as a share of the traced step time.
func (t *tracer) frac(k spanKind) float64 { return ratio(float64(t.self[k]), float64(t.rootNS())) }

// perCall returns kind k's mean self time per call in ns.
func (t *tracer) perCall(k spanKind) float64 { return ratio(float64(t.self[k]), float64(t.calls[k])) }

// writeTable prints the per-layer self-time table.
func (t *tracer) writeTable(w io.Writer, title string) {
	root := float64(t.rootNS())
	fmt.Fprintf(w, "# self time, %s: loop %.1f ms, traced steps %.1f ms (%.2f%% of loop)\n",
		title, float64(t.loopNS)/1e6, root/1e6, 100*ratio(root, float64(t.loopNS)))
	fmt.Fprintf(w, "#   %-20s %12s %12s %12s %8s %10s\n", "span", "calls", "total_ms", "self_ms", "self_%", "self_ns/call")
	var sum float64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if t.calls[k] == 0 {
			continue
		}
		sum += float64(t.self[k])
		fmt.Fprintf(w, "#   %-20s %12d %12.2f %12.2f %8.2f %10.1f\n", spanNames[k], t.calls[k],
			float64(t.total[k])/1e6, float64(t.self[k])/1e6, 100*ratio(float64(t.self[k]), root), t.perCall(k))
	}
	fmt.Fprintf(w, "#   %-20s %12s %12s %12.2f %8.2f   (sim.step self = unattributed)\n", "sum", "", "", sum/1e6, 100*ratio(sum, root))
}

// writeChrome writes the stored spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	buf := make([]byte, 0, 256)
	for i, sp := range t.spans {
		if sp.end == 0 {
			continue // still open when the run ended
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		buf = buf[:0]
		buf = append(buf, "\n{\"name\":\""...)
		buf = append(buf, spanNames[sp.kind]...)
		buf = append(buf, "\",\"cat\":\""...)
		buf = append(buf, layerOf(sp.kind)...)
		buf = append(buf, "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"...)
		buf = strconv.AppendFloat(buf, float64(sp.start)/1e3, 'f', 3, 64)
		buf = append(buf, ",\"dur\":"...)
		buf = strconv.AppendFloat(buf, float64(sp.end-sp.start)/1e3, 'f', 3, 64)
		buf = append(buf, ",\"args\":{\"id\":"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(sp.parent), 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span kind to the repository module it measures.
func layerOf(k spanKind) string {
	switch k {
	case spStep:
		return "sim"
	case spFabric:
		return "fabric"
	case spNIC:
		return "nic"
	case spChaosTX, spChaosSeg:
		return "chaos"
	case spFleetObserve, spFleetSample:
		return "telemetry/fleet"
	case spCoreReceive, spCorePoll:
		return "core"
	}
	return "bench"
}

// timedSink records a span of kind k around every Deliver into next.
type timedSink struct {
	t    *tracer
	k    spanKind
	next fabric.Sink
}

func (w *timedSink) Deliver(p *packet.Packet) {
	w.t.begin(w.k)
	w.next.Deliver(p)
	w.t.end()
}
