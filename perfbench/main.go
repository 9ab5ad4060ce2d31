// Command perfbench is the repository's end-to-end benchmark. It builds
// each workload's model from seeded weights, saves it, loads it back as
// a registry artifact and drives it through the public API of serve,
// registry, batch and graph, checking every output against reference
// logits. See NOTES.md for the workloads and metrics, and BENCHMARK.json
// for the metric names, units and bounds.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh compare --base <dir> --change <dir>
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a separate
// traced run, and the spans are written as a Chrome trace. Every run also
// writes its full record (environment, samples with quartiles, phases)
// under .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: steady-tinydup, burst-tinyvgg or offline-vgg16")
	seed := fs.Uint64("seed", 1, "seed for inputs and arrivals")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	_ = fs.Parse(os.Args[1:])

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	def, err := loadDefinition()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The load generator and the server share GOMAXPROCS = nproc-1 Ps
	// (at least one), and the pool and replica counts follow it. The
	// core left over absorbs the shared host's other load: with every
	// core in use, a neighbour busy on one core halved the capacity and
	// doubled the tails of a run, and with one core left over the same
	// neighbour moved them by a few percent (see NOTES.md).
	runtime.GOMAXPROCS(max(1, runtime.NumCPU()-1))

	r := &run{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		outDir:  outDir(),
	}
	rec, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := finish(rec, def, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output mismatch against the reference logits")
		os.Exit(1)
	}
}

// outDir is where records, spans and artifacts go: the directory run.sh
// exports, else .bench_build in the working directory.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// definitionFile names the metrics, their units and bounds; it sits at
// the repository root, the directory the benchmark runs from.
const definitionFile = "BENCHMARK.json"

// definition is the part of BENCHMARK.json the runner reads.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition() (*definition, error) {
	b, err := os.ReadFile(definitionFile)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", definitionFile, err)
	}
	return &d, nil
}

// finish writes the full record, prints the phase table, and prints the
// contract line last: the declared metrics of this run's kind, each by
// name with its unit. An end-to-end metric the run did not measure is
// an error; a per-layer metric of a layer this workload never runs
// reads 0.
func finish(rec *record, def *definition, r *run) error {
	decl := def.EndToEnd
	if r.traced {
		decl = def.PerLayer
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricLine `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metricLine{}}
	for _, d := range decl {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			if !r.traced {
				return fmt.Errorf("end-to-end metric %q was not measured", d.Name)
			}
			m = Metric{Unit: d.Unit, Note: "layer not exercised by this workload"}
			rec.Metrics[d.Name] = m
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %q measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		line.Metrics[d.Name] = metricLine{Value: m.Value, Unit: m.Unit}
	}

	dir := filepath.Join(r.outDir, "results", r.w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.traced {
		kind = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", kind, r.seed, time.Now().UnixNano()))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}

	printSummary(rec, path)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the environment header, the per-phase generator
// counts and every metric with its sample count and quartiles.
func printSummary(rec *record, path string) {
	e := rec.Env
	fmt.Printf("perfbench %s seed=%d trace=%v go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		e.Workload, e.Seed, e.Traced, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Commit)
	for _, p := range rec.Phases {
		fmt.Printf("  phase %-10s rate=%6.1f sent=%5d ok=%5d failed=%4d p50=%8.3fms p%d=%8.3fms lag_p%d=%6.3fms meets_limit=%v\n",
			p.Name, p.Rate, p.Sent, p.OK, p.Failed, p.Latency.Median, p.Latency.TailPct, p.Latency.Tail,
			p.Lag.TailPct, p.Lag.Tail, p.MeetsSLO)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		extra := ""
		if m.N > 1 {
			extra = fmt.Sprintf("  (n=%d q1=%.4g q3=%.4g)", m.N, m.Q1, m.Q3)
		}
		if m.Note != "" {
			extra += "  " + m.Note
		}
		fmt.Printf("  %-40s %12.4f %-6s%s\n", n, m.Value, m.Unit, extra)
	}
	fmt.Println("  record:", path)
	if rec.SpanFile != "" {
		fmt.Println("  spans: ", rec.SpanFile)
	}
}

// Env is the environment header every record carries.
type Env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Seconds    int    `json:"seconds"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Features   string `json:"features"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

func environment(r *run, features string) Env {
	return Env{
		Workload:   r.w.Name,
		Seed:       r.seed,
		Traced:     r.traced,
		Seconds:    int(r.seconds / time.Second),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Features:   features,
		Commit:     commit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// outside a git checkout it is "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// Metric is one reported number with the sample it came from: N, and
// the quartiles around the median when Value is a median.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// record is one run's full result, written under .bench_build/results.
type record struct {
	Env       Env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Phases    []phaseStats      `json:"phases"`
	Setup     setupStats        `json:"setup"`
	Metrics   map[string]Metric `json:"metrics"`
	SpanFile  string            `json:"span_file,omitempty"`
	// Gaps lists what this benchmark cannot yet measure from outside
	// the program.
	Gaps []string `json:"gaps,omitempty"`
}

func (rec *record) set(name, unit string, v float64) {
	rec.Metrics[name] = Metric{Value: v, Unit: unit, N: 1}
}

// setSample records a median with its quartiles.
func (rec *record) setSample(name, unit string, s Sample) {
	rec.Metrics[name] = Metric{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
}
