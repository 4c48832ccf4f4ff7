// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public layers, checks the outputs and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric from a separate traced run) with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Usage:
//
//	perfbench --workload pair_10g --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed reserved for checking a claimed gain on inputs
// the change was not developed against.
const heldOutSeed = 7919

// size scales a workload: the full benchmark and the package's tests use
// different sizes of the same definitions.
type size struct {
	pairWindow, closWindow time.Duration
	flows                  int
}

var fullSize = size{pairWindow: 500 * time.Millisecond, closWindow: 400 * time.Millisecond, flows: 100_000}

type workloadDef struct {
	name, why string
	replay    bool // has a NIC and TCP receivers to replay
	run       func(p *pass, seed int64, z size) *rep
}

var workloads = []workloadDef{
	{"pair_10g", "healthy 10G reorder pair: per-packet event and closure machinery dominates, core and reasm are a few percent", true,
		func(p *pass, seed int64, z size) *rep { return runPair(p, seed, z.pairWindow) }},
	{"clos_spray", "sprayed 6-host Clos with background load: real path reordering, RPC tail, fleet telemetry on the delivery path", true,
		func(p *pass, seed int64, z size) *rep { return runClos(p, seed, z.closWindow) }},
	{"flowscale_100k", "core.Juggler alone at 100k reordered flows with loss: core, reasm, pools and expiry do nearly all the work", false,
		func(p *pass, seed int64, z size) *rep { return runFlowScale(p, seed, z.flows) }},
}

// endToEnd names the end-to-end metrics, in print order.
var endToEnd = []metric{
	{name: "ns_per_mss", unit: "ns"},
	{name: "rss_peak_mib", unit: "MiB"},
	{name: "setup_s", unit: "s"},
	{name: "sim_goodput_gbps", unit: "Gb/s"},
	{name: "sim_mtus_per_segment", unit: "count"},
	{name: "sim_cpu_ns_per_mss", unit: "ns"},
}

// perLayer names the per-layer metrics, in print order. A metric whose
// layer is not on a workload's path reads 0 there (see README.md).
var perLayer = []metric{
	{name: "sim.events_per_mss", unit: "count"},
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "sim.pending_peak", unit: "count"},
	{name: "workload.fct_us.p50", unit: "us"},
	{name: "workload.fct_us.p99", unit: "us"},
	{name: "runtime.allocs_per_mss", unit: "count"},
	{name: "runtime.alloc_bytes_per_mss", unit: "B"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_cpu_frac", unit: "frac"},
	{name: "fabric.deliver_ns", unit: "ns"},
	{name: "fabric.pkts_per_mss", unit: "count"},
	{name: "fabric.queue_peak_kb", unit: "KiB"},
	{name: "fabric.drops", unit: "count"},
	{name: "nic.rx_deliver_ns", unit: "ns"},
	{name: "nic.poll_ns_per_pkt", unit: "ns"},
	{name: "nic.pkts_per_poll", unit: "count"},
	{name: "nic.polls_per_mss", unit: "count"},
	{name: "core.ns_per_pkt", unit: "ns"},
	{name: "core.timer_ns_per_pkt", unit: "ns"},
	{name: "core.ooo_work_per_pkt", unit: "count"},
	{name: "core.flush_ofo_frac", unit: "frac"},
	{name: "core.hold_us.p50", unit: "us"},
	{name: "core.hold_us.p99", unit: "us"},
	{name: "core.table_peak", unit: "count"},
	{name: "core.buffered_peak_kb", unit: "KiB"},
	{name: "core.evictions", unit: "count"},
	{name: "cpumodel.rx_util", unit: "frac"},
	{name: "cpumodel.app_util", unit: "frac"},
	{name: "cpumodel.backlog_drops", unit: "count"},
	{name: "tcp.rcv_ns_per_seg", unit: "ns"},
	{name: "tcp.retx_per_kmss", unit: "count"},
	{name: "tcp.ooo_seg_frac", unit: "frac"},
	{name: "tcp.acks_per_mss", unit: "count"},
	{name: "fleet.observe_ns", unit: "ns"},
	{name: "fleet.sample_ns", unit: "ns"},
	{name: "trace.unattributed_frac", unit: "frac"},
	{name: "trace.overhead_frac", unit: "frac"},
	{name: "trace.self_frac.fabric", unit: "frac"},
	{name: "trace.self_frac.nic", unit: "frac"},
	{name: "trace.self_frac.core", unit: "frac"},
	{name: "trace.self_frac.fleet", unit: "frac"},
	{name: "trace.self_frac.chaos", unit: "frac"},
	{name: "trace.self_frac.bench", unit: "frac"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: pair_10g, clos_spray or flowscale_100k")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for the traced run's Chrome trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (pair_10g, clos_spray, flowscale_100k), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d held_out_seed=%d seconds=%d trace=%d\n", w.name, *seed, heldOutSeed, *seconds, *trace)
	fmt.Fprintf(stdout, "# env num_cpu=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "# why: %s\n", w.why)

	var res result
	if *trace == 0 {
		res = measure(stdout, w, *seed, time.Duration(*seconds)*time.Second, fullSize)
	} else {
		var err error
		res, err = traced(stdout, w, *seed, fullSize, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, n := range res.info {
		fmt.Fprintf(stdout, "# note: %s\n", n)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# FAILED: %s\n", n)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is what one invocation prints.
type result struct {
	attempted, failed int64
	notes, info       []string
	metrics           []metric
}

func (res *result) add(r *rep) {
	res.attempted += r.attempted
	res.failed += r.failed
	res.notes = append(res.notes, r.notes...)
	res.info = append(res.info, r.info...)
}

func (res *result) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]value{}
	for _, x := range res.metrics {
		v := x.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[x.name] = value{v, x.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, m})
}

// measure repeats the workload's plain pass, each repetition from a
// fresh process state, until the budget would be exceeded; host-time
// metrics are medians over the repetitions, and every repetition must
// reproduce the first one's simulated values exactly.
func measure(out io.Writer, w *workloadDef, seed int64, budget time.Duration, z size) result {
	var res result
	var reps []*rep
	start := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		r := w.run(&pass{mode: modePlain}, seed, z)
		took := time.Since(t0)
		if len(reps) > 0 {
			same(r, reps[0], true, "repetition %d", len(reps)+1)
		}
		res.add(r)
		reps = append(reps, r)
		fmt.Fprintf(out, "# rep %d: setup %.4f s, window %.4f s, %.1f MSS, %.2f ns/MSS\n",
			len(reps), r.setup.Seconds(), r.wall.Seconds(), r.mss, nsPerMSS(r))
		if time.Since(start)+took > budget {
			break
		}
	}
	var ns, setup []float64
	for _, r := range reps {
		ns = append(ns, nsPerMSS(r))
		setup = append(setup, r.setup.Seconds())
	}
	res.metrics = []metric{
		{"ns_per_mss", "ns", quantile(ns, 0.5)},
		{"rss_peak_mib", "MiB", rssPeakMiB()},
		{"setup_s", "s", quantile(setup, 0.5)},
	}
	res.metrics = append(res.metrics, reps[0].sim...)
	fmt.Fprintf(out, "# %d repetitions\n", len(reps))
	printMetrics(out, res.metrics)
	printFCT(out, reps[0])
	return res
}

// traced runs the plain pass, the traced pass and (for workloads with a
// NIC and TCP) the replay pass once each, checks that the latter two
// reproduce the plain pass exactly, and assembles the per-layer metrics.
func traced(out io.Writer, w *workloadDef, seed int64, z size, tracePath string) (result, error) {
	var res result
	runtime.GC()
	plain := w.run(&pass{mode: modePlain}, seed, z)
	res.add(plain)
	runtime.GC()
	tr := newTracer()
	tp := w.run(&pass{mode: modeTraced, tr: tr}, seed, z)
	same(tp, plain, true, "traced pass")
	res.add(tp)
	var rp *rep
	if w.replay {
		runtime.GC()
		rp = w.run(&pass{mode: modeReplay}, seed, z)
		same(rp, plain, false, "replay pass")
		res.add(rp)
	}

	vals := map[string]float64{}
	for _, m := range plain.layer {
		vals[m.name] = m.value
	}
	for _, m := range plain.runtimeMetrics() {
		vals[m.name] = m.value
	}
	vals["sim.ns_per_event"] = ratio(nsPerMSS(plain), vals["sim.events_per_mss"])
	for _, src := range []*rep{tp, rp} {
		if src != nil {
			for _, m := range src.timing {
				vals[m.name] = m.value
			}
		}
	}
	vals["fabric.deliver_ns"] = tr.perCall(spFabric)
	vals["nic.rx_deliver_ns"] = tr.perCall(spNIC)
	vals["fleet.observe_ns"] = tr.perCall(spFleetObserve)
	vals["fleet.sample_ns"] = tr.perCall(spFleetSample)
	vals["trace.unattributed_frac"] = tr.frac(spStep)
	vals["trace.overhead_frac"] = ratio(nsPerMSS(tp), nsPerMSS(plain)) - 1
	vals["trace.self_frac.fabric"] = tr.frac(spFabric)
	vals["trace.self_frac.nic"] = tr.frac(spNIC)
	vals["trace.self_frac.core"] = tr.frac(spCoreReceive) + tr.frac(spCorePoll)
	vals["trace.self_frac.fleet"] = tr.frac(spFleetObserve) + tr.frac(spFleetSample)
	vals["trace.self_frac.chaos"] = tr.frac(spChaosTX) + tr.frac(spChaosSeg)
	vals["trace.self_frac.bench"] = tr.frac(spBenchTap) + tr.frac(spBenchRound)
	for _, m := range perLayer {
		res.metrics = append(res.metrics, metric{m.name, m.unit, vals[m.name]})
	}

	fmt.Fprintf(out, "# untraced %.2f ns/MSS, traced %.2f ns/MSS over %.1f MSS\n", nsPerMSS(plain), nsPerMSS(tp), tp.mss)
	var table strings.Builder
	tr.writeTable(&table, w.name)
	io.WriteString(out, table.String())
	if err := tr.writeChrome(tracePath); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	tablePath := strings.TrimSuffix(tracePath, ".json") + "-selftime.txt"
	if err := os.WriteFile(tablePath, []byte(table.String()), 0o644); err != nil {
		return res, fmt.Errorf("writing self-time table: %w", err)
	}
	fmt.Fprintf(out, "# chrome trace (%d of %d spans): %s; self-time table: %s\n", tr.stored, sumCalls(tr), tracePath, tablePath)
	printMetrics(out, res.metrics)
	printFCT(out, plain)
	return res, nil
}

// same checks, as one of got's checks, that got reproduces want's
// simulated values exactly and, when events is set, its event count (the
// replay pass adds its own events to the simulator).
func same(got, want *rep, events bool, format string, args ...any) {
	what := fmt.Sprintf(format, args...)
	ok := (!events || got.executed == want.executed) && len(got.sim) == len(want.sim) && len(got.layer) == len(want.layer)
	for i := 0; ok && i < len(got.sim); i++ {
		ok = got.sim[i] == want.sim[i]
	}
	for i := 0; ok && i < len(got.layer); i++ {
		// Sampled peaks are taken between slices, which the traced pass
		// does not have; every other per-layer count must match.
		if !sampled(got.layer[i].name) && (events || got.layer[i].name != "sim.events_per_mss") {
			ok = got.layer[i] == want.layer[i]
		}
	}
	got.check(ok, "%s does not reproduce the plain pass (events %d vs %d, sim %v vs %v)",
		what, got.executed, want.executed, got.sim, want.sim)
}

func sampled(name string) bool {
	switch name {
	case "sim.pending_peak", "core.table_peak", "core.buffered_peak_kb":
		return true
	}
	return false
}

func nsPerMSS(r *rep) float64 { return ratio(float64(r.wall.Nanoseconds()), r.mss) }

func sumCalls(t *tracer) int64 {
	var n int64
	for _, c := range t.calls {
		n += c
	}
	return n
}

// printFCT prints the completion-time quantiles with their sample count.
func printFCT(out io.Writer, r *rep) {
	for _, m := range r.layer {
		if strings.HasPrefix(m.name, "workload.fct_us") {
			fmt.Fprintf(out, "# %s %.3f %s over %d completions\n", m.name, m.value, m.unit, r.fctN)
		}
	}
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "# %-30s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 && q == 0.5 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
