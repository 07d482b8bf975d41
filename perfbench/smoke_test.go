package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload runs every workload at a tiny scale, untraced
// and traced, and checks the result line: correct, and carrying exactly
// the metrics BENCHMARK.json lists for that mode.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.01, trace: traced, tiny: true}
			res := workloads[name](o)
			var out bytes.Buffer
			if !report(&out, o, []string{name}, map[string]*result{name: res}) {
				t.Errorf("%s trace=%v: run not correct:\n%s", name, traced, out.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 || len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result %+v", name, traced, got)
			}
			for _, m := range want {
				v, ok := got.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.name, v, ok, m.unit)
				}
			}
		}
	}
}

// TestReportRefusesWrongResults checks that a run with a failed
// operation prints correct=false and no metrics.
func TestReportRefusesWrongResults(t *testing.T) {
	res := newResult()
	res.attempted = 3
	for _, m := range endToEnd {
		res.e2e[m.name] = metric{1, m.unit}
	}
	res.fail("job 2: program does not match the examples")
	var out bytes.Buffer
	if report(&out, options{}, []string{"loop"}, map[string]*result{"loop": res}) {
		t.Fatal("report accepted a failed run")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; last != `{"correct":false,"attempted":3,"failed":1,"metrics":{}}` {
		t.Errorf("result line %s", last)
	}
}

// TestLayerTablesAgree checks that every per-layer metric has a unit
// and that the end-to-end JSON metrics are all printed in the table.
func TestLayerTablesAgree(t *testing.T) {
	for _, m := range perLayer {
		if layerUnit(m.name) == "" {
			t.Errorf("%s has no unit", m.name)
		}
	}
	for _, m := range endToEnd {
		found := false
		for _, c := range tableMetrics {
			found = found || (c.name == m.name && c.unit == m.unit)
		}
		if !found {
			t.Errorf("end-to-end metric %s is missing from the table", m.name)
		}
	}
}
