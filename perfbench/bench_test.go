package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSize runs the same workload definitions with short windows and few
// flows.
var testSize = size{pairWindow: 20 * time.Millisecond, closWindow: 20 * time.Millisecond, flows: 2000}

// TestWorkloads runs each workload briefly: every end-to-end and
// per-layer metric is emitted with its unit, the simulated values repeat
// exactly across two runs of one seed, and every output check holds,
// including both replay equalities and the traced pass reproducing the
// plain pass.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a := measure(io.Discard, w, 3, time.Nanosecond, testSize)
			b := measure(io.Discard, w, 3, time.Nanosecond, testSize)
			checkNames(t, a.metrics, endToEnd)
			for j, m := range a.metrics {
				if strings.HasPrefix(m.name, "sim_") && m != b.metrics[j] {
					t.Errorf("%s differs across runs of one seed: %v vs %v", m.name, m.value, b.metrics[j].value)
				}
			}
			if a.failed != 0 || a.attempted == 0 {
				t.Errorf("plain run: %d of %d operations failed: %v", a.failed, a.attempted, a.notes)
			}

			tr, err := traced(io.Discard, w, 3, testSize, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			checkNames(t, tr.metrics, perLayer)
			if tr.failed != 0 {
				t.Errorf("traced run: %d of %d checks failed: %v", tr.failed, tr.attempted, tr.notes)
			}
			// The replays ran (their timings are non-zero) and, with no
			// failed check, both replay equalities held.
			got := map[string]float64{}
			for _, m := range tr.metrics {
				got[m.name] = m.value
			}
			if got["core.ns_per_pkt"] <= 0 || (w.replay && got["tcp.rcv_ns_per_seg"] <= 0) {
				t.Errorf("replay timings missing: core %v tcp %v", got["core.ns_per_pkt"], got["tcp.rcv_ns_per_seg"])
			}
		})
	}
}

func checkNames(t *testing.T, got, want []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d metrics, want %d", len(got), len(want))
	}
	units := map[string]string{}
	for _, m := range got {
		units[m.name] = m.unit
	}
	for _, m := range want {
		if u, ok := units[m.name]; !ok || u != m.unit {
			t.Errorf("metric %s: unit %q (present %v), want %q", m.name, u, ok, m.unit)
		}
	}
}

// TestResultJSON checks the last-line contract: exactly the keys correct,
// attempted, failed and metrics, each metric with a value and a unit.
func TestResultJSON(t *testing.T) {
	res := result{attempted: 3, failed: 1, metrics: []metric{{"ns_per_mss", "ns", 1.5}}}
	line, err := res.json()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("keys: %s", line)
	}
	if want := `{"correct":false,"attempted":3,"failed":1,"metrics":{"ns_per_mss":{"value":1.5,"unit":"ns"}}}`; string(line) != want {
		t.Errorf("got %s, want %s", line, want)
	}
}
