// Command perfbench is the repository's performance benchmark. It
// drives the synthesizer only through public entry points
// (stochsyn.Synthesize, search.New / Run.Step, restart strategies'
// RunContext, and the synthd handler behind httptest) on four seeded
// workloads — loop, sygus, superopt and service — and checks every
// result it reports. An untraced run prints the end-to-end metrics; a
// traced run (-trace 1) wraps each layer call in a span and prints the
// per-layer metrics. See README.md.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"iters_per_s": {"value": 612345.7, "unit": "1/s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // directory for traced runs' span files; "" keeps them in memory only
	commit   string
	tiny     bool // smoke-test scale: minimal jobs, for the package's own tests
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	attempted int
	failed    int
	problems  []string // why failed > 0, one line each
	// roundtrip counts solutions whose printed Program only parsed
	// back after bindLiterals: a printer/parser defect of the
	// library, reported on every run (the solutions themselves were
	// verified).
	roundtrip int

	e2e    map[string]metric // end-to-end metrics (untraced run)
	layers map[string]metric // per-layer metrics (traced run)
	notes  []string          // detail lines: tails with support, ratios with bases, withheld metrics
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// fail records one failed or wrong operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds a detail line to the report.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// layer sets a per-layer metric.
func (r *result) layer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// withhold reports a per-layer metric as not measured on this
// workload. The JSON carries 0 for it; the reason is printed.
func (r *result) withhold(reason string, names ...string) {
	for _, n := range names {
		if _, ok := r.layers[n]; ok {
			continue
		}
		r.layers[n] = metric{Value: 0, Unit: layerUnit(n)}
		r.note("withheld %s: %s", n, reason)
	}
}

// endToEnd lists the end-to-end metrics every workload reports in its
// JSON line (BENCHMARK.json's end_to_end), with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"iters_per_s", "1/s"},
}

// tableMetrics are the end-to-end metrics of the printed table, in
// column order. Each workload fills in the ones that apply.
var tableMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"iters_per_s", "1/s"},
	{"solve_ratio", "ratio"},
	{"iters_pmean", "iters"},
	{"tts_pmean_s", "s"},
	{"tts_p50_s", "s"},
	{"tts_tail_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"hit_latency_p50_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"rss_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run
// (BENCHMARK.json's per_layer), with units.
var perLayer = []struct{ name, unit string }{
	{"mutate.apply_ns", "ns"},
	{"mutate.valid_ratio", "ratio"},
	{"plan.begin_ns", "ns"},
	{"plan.commit_ns", "ns"},
	{"plan.abort_ns", "ns"},
	{"plan.node_reuse_ratio", "ratio"},
	{"plan.reset_us", "us"},
	{"plan.recipe_hit_ratio", "ratio"},
	{"cost.ofplan_ns", "ns"},
	{"cost.case_skip_ratio", "ratio"},
	{"cost.accept_ratio", "ratio"},
	{"prog.rollback_ns", "ns"},
	{"search.new_us", "us"},
	{"search.step_ns_per_iter", "ns"},
	{"search.iters_per_search", "iters"},
	{"restart.sched_ratio", "ratio"},
	{"restart.searches_per_solve", "count"},
	{"restart.useful_ratio", "ratio"},
	{"restart.busy_ratio", "ratio"},
	{"stochsyn.audit_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(options) *result{
	"loop":     runLoop,
	"sygus":    func(o options) *result { return runLibrary(o, sygusSuite) },
	"superopt": func(o options) *result { return runLibrary(o, superoptSuite) },
	"service":  runService,
}

var workloadOrder = []string{"loop", "sygus", "superopt", "service"}

func main() {
	var o options
	var traceFlag int
	var probe bool
	flag.BoolVar(&probe, "startup-probe", false, "exit as soon as the process has started (times process start-up)")
	flag.StringVar(&o.workload, "workload", "", "workload to run: loop, sygus, superopt, service, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.StringVar(&o.spans, "spans", "", "directory to write a traced run's spans to (empty: do not write)")
	flag.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the machine record")
	flag.Parse()
	if probe {
		return
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadOrder
	} else if workloads[o.workload] == nil {
		fatalf("unknown workload %q (want loop, sygus, superopt, service or all)", o.workload)
	}
	printMachine(os.Stdout, o)
	startup := timeStartup()
	results := map[string]*result{}
	for _, name := range names {
		wo := o
		wo.workload = name
		before := spin()
		res := workloads[name](wo)
		after := spin()
		res.note("calibration spin: %.3f ns/op before, %.3f ns/op after (independent of the repository)", before, after)
		if m, ok := res.e2e["setup_s"]; ok {
			res.note("setup_s: process start-up %.6fs (median of %d) + workload set-up %.6fs (median of %d)", startup, startupReps, m.Value, setupReps)
			res.e2e["setup_s"] = metric{startup + m.Value, "s"}
		}
		results[name] = res
	}
	ok := report(os.Stdout, o, names, results)
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// report prints the table, the detail lines and the JSON result line,
// and reports whether every operation was correct.
func report(w io.Writer, o options, names []string, results map[string]*result) bool {
	attempted, failed := 0, 0
	metrics := map[string]metric{}
	for _, name := range names {
		r := results[name]
		attempted += r.attempted
		failed += r.failed
		for _, line := range r.notes {
			fmt.Fprintf(w, "%s: %s\n", name, line)
		}
		for _, p := range r.problems {
			fmt.Fprintf(w, "%s: FAILED: %s\n", name, p)
		}
		if r.roundtrip > 0 {
			fmt.Fprintf(w, "%s: DEFECT: %d of %d reported programs print to text that ParseProgram rejects as over the node limit (shared constants are printed inline); verified after binding repeated literals\n", name, r.roundtrip, r.attempted)
		}
		src := r.e2e
		if o.trace {
			src = r.layers
		}
		for k, v := range src {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				continue // not measured; JSON cannot carry it
			}
			key := k
			if len(names) > 1 {
				key = name + "." + k
			}
			metrics[key] = v
		}
	}
	if o.trace {
		printLayers(w, names, results)
	} else {
		printTable(w, names, results)
	}
	correct := failed == 0 && attempted > 0
	if correct && len(names) == 1 {
		// One workload reports exactly the metrics BENCHMARK.json lists.
		want := endToEnd
		if o.trace {
			want = perLayer
		}
		out := map[string]metric{}
		for _, m := range want {
			v, ok := metrics[m.name]
			if !ok {
				fmt.Fprintf(w, "%s: FAILED: metric %s was not measured\n", names[0], m.name)
				correct = false
			}
			out[m.name] = v
		}
		metrics = out
	}
	if !correct {
		// A run with a wrong or mismatched result refuses to report.
		metrics = map[string]metric{}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(w, string(line))
	return correct
}

// printTable prints one row per workload with every end-to-end metric
// that applies to it ("-" where it does not).
func printTable(w io.Writer, names []string, results map[string]*result) {
	var hdr strings.Builder
	fmt.Fprintf(&hdr, "%-9s", "workload")
	for _, m := range tableMetrics {
		fmt.Fprintf(&hdr, " %*s", colWidth(m.name, m.unit), m.name+"["+m.unit+"]")
	}
	fmt.Fprintln(w, hdr.String())
	for _, name := range names {
		r := results[name]
		var row strings.Builder
		fmt.Fprintf(&row, "%-9s", name)
		for _, m := range tableMetrics {
			cell := "-"
			if v, ok := r.e2e[m.name]; ok && !math.IsNaN(v.Value) {
				cell = fmt.Sprintf("%.4g", v.Value)
			}
			fmt.Fprintf(&row, " %*s", colWidth(m.name, m.unit), cell)
		}
		fmt.Fprintln(w, row.String())
	}
}

func colWidth(name, unit string) int { return len(name) + len(unit) + 2 }

// printLayers prints every per-layer metric of a traced run.
func printLayers(w io.Writer, names []string, results map[string]*result) {
	for _, name := range names {
		r := results[name]
		for _, m := range perLayer {
			v := r.layers[m.name]
			fmt.Fprintf(w, "%s: layer %-28s %14.6g %s\n", name, m.name, v.Value, v.Unit)
		}
	}
}

// printMachine prints the machine record: enough to tell drift of the
// box from a change in the program.
func printMachine(w io.Writer, o options) {
	fmt.Fprintf(w, "machine: GOMAXPROCS=%d nproc=%d cpu=%q go=%s os=%s/%s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, o.commit)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
}

// cpuModel reads the processor model from /proc/cpuinfo (Linux), or
// reports "unknown".
func cpuModel() string {
	data, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spinSink keeps the calibration loop from being optimized away.
var spinSink uint64

// spin times a fixed integer loop that does not touch the repository's
// code and returns the median ns per step over five repeats: a
// reference for the box's speed before and after a workload.
func spin() float64 {
	const steps = 1 << 22
	var per []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/steps)
		spinSink += x
	}
	return median(per)
}

// rssSampler reads the process's resident set size from
// /proc/self/statm every rssEvery between sampleRSS and Stop.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

const rssEvery = 2 * time.Millisecond

// sampleRSS releases the set-up's garbage to the OS and starts
// sampling, so the samples describe the measured window only.
func sampleRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		all := []float64{residentMB()}
		for {
			select {
			case <-s.stop:
				s.done <- append(all, residentMB())
				return
			case <-t.C:
				all = append(all, residentMB())
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the median and the peak of the
// samples, in MB. The median is the steady footprint; the peak follows
// the largest job of the window and so varies with the inputs.
func (s *rssSampler) Stop() (p50, peak float64) {
	close(s.stop)
	all := <-s.done
	return median(all), percentile(all, 100)
}

// residentMB is the current resident set size in MB (NaN where
// /proc/self/statm is unavailable).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// startupReps is how many times timeStartup starts the process.
const startupReps = 7

// timeStartup starts this program with -startup-probe startupReps
// times, waiting for each to exit, and returns the median wall time in
// seconds: process creation, runtime and package initialization. Work
// a change moves into package initialization shows here.
func timeStartup() float64 {
	exe, err := os.Executable()
	if err != nil {
		fatalf("locating the executable: %v", err)
	}
	var secs []float64
	for i := 0; i < startupReps; i++ {
		t0 := time.Now()
		if err := exec.Command(exe, "-startup-probe").Run(); err != nil {
			fatalf("start-up probe: %v", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs)
}

// mix derives a sub-seed from a seed and indices (splitmix64 finalizer
// over a running combination).
func mix(seed uint64, idx ...uint64) uint64 {
	z := seed
	for _, i := range idx {
		z ^= i + 0x9e3779b97f4a7c15 + z<<6 + z>>2
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// setupReps is how many times a run repeats its set-up to time it.
const setupReps = 11

// timeSetup runs setup setupReps times and returns the median wall time
// in seconds and the last setup's value.
func timeSetup[T any](setup func() T) (float64, T) {
	var secs []float64
	var v T
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v = setup()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), v
}

// spanReport aggregates the spans of a traced run, prints the self-time
// table into the notes and writes the spans out.
func spanReport(res *result, o options, tr *tracer) map[string]*spanStat {
	spans := tr.Spans()
	st := selfTimes(spans)
	var names []string
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st[n]
		res.note("span %-20s count=%d total_ms=%.3f self_ms=%.3f mean_ns=%.1f",
			n, s.Count, float64(s.Total)/1e6, float64(s.Self)/1e6, s.MeanNs())
	}
	if d := tr.Dropped(); d > 0 {
		res.note("spans dropped past the %d-span cap: %d", maxSpans, d)
	}
	if o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			res.note("spans not written: %v", err)
		} else {
			res.note("spans written: %s (%d spans)", path, len(spans))
		}
	}
	return st
}

// spanMean is the mean wall time of the named spans in ns, NaN when
// none was recorded.
func spanMean(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil || s.Count == 0 {
		return math.NaN()
	}
	return s.MeanNs()
}
