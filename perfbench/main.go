// Command perfbench is the repository benchmark. It measures the maia
// reproduction end to end on three workloads and, in a separate traced
// run, layer by layer:
//
//	perfbench --workload suite  --seed 1 --seconds 45 --trace 0
//	perfbench --workload serve  --seed 1 --seconds 45 --trace 0
//	perfbench --workload oracle --seed 1 --seconds 45 --trace 0
//	perfbench --workload suite  --seed 1 --seconds 45 --trace 1
//
// run.sh builds this binary and cmd/maiad from source and then runs it;
// README.md explains the workloads, the metrics and what each layer is
// predicted to move. Human-readable report lines go to standard output
// first; the last line is one JSON object with the fields correct,
// attempted, failed and metrics. The full record (environment, seed,
// rate ladder, every metric) is also written under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCommand {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	maiad    string
	outDir   string
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "suite, oracle or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.IntVar(&o.seconds, "seconds", 45, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer sweep instead of the end-to-end workload")
	fs.StringVar(&o.maiad, "maiad", ".bench_build/bin/maiad", "maiad binary the serve workload starts")
	fs.StringVar(&o.outDir, "out", ".bench_build/out", "directory for the run record and the span file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch {
	case o.workload != "suite" && o.workload != "oracle" && o.workload != "serve":
		return o, fmt.Errorf("--workload must be suite, oracle or serve, not %q", o.workload)
	case o.seconds < 1 || o.seconds > 120:
		return o, fmt.Errorf("--seconds must be 1..120, not %d", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's figures: the result-line metrics and the
// human-readable lines printed above it.
type report struct {
	result
	lines []string
	// extra holds figures recorded in the run file but not on the result
	// line (each workload's own names, sample counts, the rate ladder).
	extra map[string]any
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, extra: map[string]any{}}
}

// set records a result-line metric.
func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

// linef adds one human-readable report line.
func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// note adds a named figure with its unit and sample count to the
// human-readable lines and the run record.
func (r *report) note(name string, value float64, unit string, n int) {
	r.linef("%-28s %14.4f %-6s (n=%d)", name, value, unit, n)
	r.extra[name] = map[string]any{"value": value, "unit": unit, "n": n}
}

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.linef("FAIL "+format, args...)
}

// mismatch counts a wrong output: a failed operation that also makes
// the run incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.Correct = false
	r.fail(format, args...)
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	env := recordEnvironment()
	rep := newReport()
	start, steal0 := time.Now(), hostStealSeconds()
	switch {
	case o.trace:
		err = runTraced(o, rep)
	case o.workload == "suite":
		err = runSuite(o, rep)
	case o.workload == "oracle":
		err = runOracle(o, rep)
	default:
		err = runServe(o, rep)
	}
	if err != nil {
		return err
	}
	if rep.Attempted < 1 {
		return errors.New("no operation was attempted")
	}

	// Time the hypervisor gave other guests while this run waited for a
	// CPU: a run with much of it measured a slower machine.
	rep.note("host_steal_s", hostStealSeconds()-steal0, "s", 1)

	mode := "trace0"
	if o.trace {
		mode = "trace1"
	}
	record := map[string]any{
		"workload":    o.workload,
		"mode":        mode,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"wall_s":      time.Since(start).Seconds(),
		"environment": env,
		"result":      rep.result,
		"figures":     rep.extra,
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-%s-seed%d.json", o.workload, mode, o.seed))
	if err := writeJSONFile(path, record); err != nil {
		return err
	}

	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(stdout, "environment %s\n", envLine)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "record %s\n", path)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
