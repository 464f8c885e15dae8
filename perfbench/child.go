package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"runtime"
	"time"

	"maia/internal/harness"
	"maia/internal/simtrace"
)

// childCommand is the first argument that turns the binary into one of
// the benchmark's child processes: "setup" (set-up only), "suite" (a
// cold pass then warm passes; with a negative -warm, the cold pass only), "render" (one experiment, for the
// oracle) or "tracer" (the harness tracer's overhead).
const childCommand = "child"

// registry is the reproduction's experiment registry; it is only read.
var registry = harness.Paper()

// suite is the 38-experiment reproduction with its goldens loaded.
type suite struct {
	exps   []harness.Experiment
	golden [][]byte
	env    harness.Env
}

// loadSuite builds the registry and reads every experiment's golden
// snapshot from golden: the set-up a maiabench user pays before the
// first render.
func loadSuite(golden fs.FS) (*suite, error) {
	s := &suite{exps: registry.All(), env: harness.DefaultEnv()}
	for _, e := range s.exps {
		want, err := fs.ReadFile(golden, harness.GoldenName(e.ID))
		if err != nil {
			return nil, fmt.Errorf("golden for %s: %w", e.ID, err)
		}
		s.golden = append(s.golden, want)
	}
	return s, nil
}

// inOrder is the presentation order, for passes that need no seed.
func (s *suite) inOrder() []int {
	order := make([]int, len(s.exps))
	for i := range order {
		order[i] = i
	}
	return order
}

// passResult is one sequential pass over the suite.
type passResult struct {
	wall     time.Duration
	fleet    time.Duration // the ext-fleet renders' share of wall
	cpu      time.Duration // the process's CPU time over the renders
	fleetCPU time.Duration // the ext-fleet renders' share of cpu
	mallocs  uint64
	failed   []string // experiments whose output missed its golden
}

// pass renders every experiment once in the given order, byte-compares
// each output with its golden, and times the renders. Comparisons sit
// outside the timed regions.
func (s *suite) pass(order []int) passResult {
	var r passResult
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, i := range order {
		e := s.exps[i]
		t0, c0 := time.Now(), processCPU(0)
		out, err := harness.RenderBytes(e, s.env)
		d, c := time.Since(t0), processCPU(0)-c0
		r.wall += d
		r.cpu += c
		if e.Section == "fleet" {
			r.fleet += d
			r.fleetCPU += c
		}
		if err != nil {
			r.failed = append(r.failed, fmt.Sprintf("%s: %v", e.ID, err))
		} else if !bytes.Equal(out, s.golden[i]) {
			r.failed = append(r.failed, e.ID+": output differs from golden")
		}
	}
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	return r
}

// workerStats is what a suite child reports on its last line.
type workerStats struct {
	ColdMs     float64   `json:"cold_ms"`
	WarmMs     []float64 `json:"warm_ms"`
	FleetMs    []float64 `json:"fleet_ms"`
	ColdCPUMs  float64   `json:"cold_cpu_ms"`
	WarmCPUMs  []float64 `json:"warm_cpu_ms"`
	FleetCPUMs []float64 `json:"fleet_cpu_ms"`
	Mallocs    []float64 `json:"mallocs"`
	Attempted  int       `json:"attempted"`
	Failures   []string  `json:"failures"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	// RSSMB is the resident-set high-water mark after the cold pass and
	// rssPasses warm passes: a fixed amount of work, because the
	// process's resident set keeps growing pass after pass, and a peak
	// taken after a fixed time would grow whenever the passes got faster.
	RSSMB float64 `json:"rss_mb"`
}

// rssPasses is how many warm passes precede the RSSMB reading.
const rssPasses = 10

// suiteWorker runs one cold pass, then warm passes until warm has
// elapsed and at least rssPasses have run, over s in seed-drawn orders.
// A negative warm runs the cold pass only.
func suiteWorker(s *suite, seed uint64, warm time.Duration) workerStats {
	rng := rand.New(rand.NewPCG(seed, 0x5017e))
	var st workerStats
	record := func(p passResult) {
		st.Attempted += len(s.exps)
		st.Failures = append(st.Failures, p.failed...)
	}
	cold := s.pass(rng.Perm(len(s.exps)))
	record(cold)
	st.ColdMs = ms(cold.wall)
	st.ColdCPUMs = ms(cold.cpu)
	if warm < 0 {
		return st
	}
	deadline := time.Now().Add(warm)
	for len(st.WarmMs) < rssPasses || time.Now().Before(deadline) {
		p := s.pass(rng.Perm(len(s.exps)))
		record(p)
		st.WarmMs = append(st.WarmMs, ms(p.wall))
		st.FleetMs = append(st.FleetMs, ms(p.fleet))
		st.WarmCPUMs = append(st.WarmCPUMs, ms(p.cpu))
		st.FleetCPUMs = append(st.FleetCPUMs, ms(p.fleetCPU))
		st.Mallocs = append(st.Mallocs, float64(p.mallocs))
		if len(st.WarmMs) == rssPasses {
			st.RSSMB = selfPeakMB()
		}
	}
	st.PeakRSSMB = selfPeakMB()
	return st
}

// renderStats is the line a render child prints before its output.
type renderStats struct {
	RenderMs  float64 `json:"render_ms"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// tracerStats is what a tracer child reports: one warm pass without and
// one with harness.WithTracer.
type tracerStats struct {
	PlainMs  float64  `json:"plain_ms"`
	TracedMs float64  `json:"traced_ms"`
	Failures []string `json:"failures"`
}

// tracerOverhead warms the memos with one pass, then times one plain
// and one harness-traced pass. Tracing refuses the fast paths, so the
// traced pass runs the goroutine engines and peaks at about 2 GB; it
// runs in its own process to give that memory back.
func tracerOverhead(s *suite) tracerStats {
	order := s.inOrder()
	s.pass(order)
	plain := s.pass(order)
	traced := *s
	traced.env.Tracer = simtrace.New()
	tp := traced.pass(order)
	return tracerStats{PlainMs: ms(plain.wall), TracedMs: ms(tp.wall), Failures: append(plain.failed, tp.failed...)}
}

// childMain runs one child process. Every child prints readyLine with
// its CPU time once its set-up is done, so the parent can time set-up
// both from outside and in CPU time.
func childMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "child: want setup, suite, render or tracer")
		return 2
	}
	fs := flag.NewFlagSet("child "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "pass-order seed")
	warm := fs.Duration("warm", time.Second, "time spent on warm passes")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	s, err := loadSuite(harness.EmbeddedGolden())
	if err != nil {
		fmt.Fprintln(stderr, "child:", err)
		return 1
	}
	switch args[0] {
	case "setup":
		announceReady(stdout)
		return 0
	case "tracer":
		announceReady(stdout)
		return writeChildJSON(stdout, stderr, tracerOverhead(s))
	case "suite":
		announceReady(stdout)
		return writeChildJSON(stdout, stderr, suiteWorker(s, *seed, *warm))
	case "render":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "child render: want one experiment ID")
			return 2
		}
		e, ok := registry.ByID(fs.Arg(0))
		if !ok {
			fmt.Fprintf(stderr, "child render: unknown experiment %q\n", fs.Arg(0))
			return 2
		}
		announceReady(stdout)
		t0 := time.Now()
		out, err := harness.RenderBytes(e, s.env)
		d := time.Since(t0)
		if err != nil {
			fmt.Fprintln(stderr, "child render:", err)
			return 1
		}
		if code := writeChildJSON(stdout, stderr, renderStats{ms(d), selfPeakMB()}); code != 0 {
			return code
		}
		if _, err := stdout.Write(out); err != nil {
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "child: unknown mode %q\n", args[0])
	return 2
}

func writeChildJSON(stdout, stderr io.Writer, v any) int {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(stderr, "child:", err)
		return 1
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return 1
	}
	return 0
}
