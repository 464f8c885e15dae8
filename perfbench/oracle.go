package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"time"

	"maia/internal/harness"
)

// oracleCeilingMB is the oracle children's peak-RSS ceiling, well below
// the 8 GB the oracle must run on. fig14 peaks near 1 GB. ext-rack-npb's
// peak depends on goroutine scheduling: 1.0 to over 3.5 GB between
// identical runs on a 2-CPU machine, so it passes this ceiling in some
// runs and is then killed like ext-rack-overflow.
const oracleCeilingMB float64 = 2048

// childTimeout bounds one oracle child; the slowest passing child takes
// a few seconds.
const childTimeout = 60 * time.Second

// oracleChild is one experiment rendered by the slow-path oracle in a
// fresh process.
type oracleChild struct {
	id        string
	wallMs    float64 // process start to exit
	renderMs  float64 // the render alone, as the child timed it
	setupS    float64 // process start until the child was ready
	peakRSSMB float64
	err       error // kill, crash or golden mismatch
	mismatch  bool
	// killedAtCeiling reports that the child passed the RSS ceiling.
	killedAtCeiling bool
}

// renderOracle runs experiment id in a fresh child process with
// MAIA_NO_FASTPATH=1 under the RSS ceiling and compares its output with
// the golden.
func renderOracle(exe, id string, want []byte, ceilingMB float64) oracleChild {
	cmd := exec.Command(exe, childCommand, "render", id)
	cmd.Env = append(os.Environ(), "MAIA_NO_FASTPATH=1")
	res := runWatched(cmd, ceilingMB, childTimeout)
	c := oracleChild{id: id, wallMs: ms(res.Wall), renderMs: ms(res.Wall - res.Ready), setupS: res.Ready.Seconds(),
		peakRSSMB: res.PeakRSSMB, err: res.Err, killedAtCeiling: res.OverCeiling}
	if c.err != nil {
		return c
	}
	stats, out, _ := bytes.Cut(res.Out, []byte("\n"))
	var rs renderStats
	if err := json.Unmarshal(stats, &rs); err != nil {
		c.err = fmt.Errorf("bad stats line: %w", err)
		return c
	}
	c.renderMs, c.peakRSSMB = rs.RenderMs, rs.PeakRSSMB
	if !bytes.Equal(out, want) {
		c.err, c.mismatch = fmt.Errorf("output differs from golden"), true
	}
	return c
}

// record counts c as one attempted operation that failed if the child
// was killed, crashed or printed the wrong output.
func (c oracleChild) record(rep *report) {
	rep.Attempted++
	switch {
	case c.mismatch:
		rep.mismatch("oracle %s: %v", c.id, c.err)
	case c.err != nil:
		rep.fail("oracle %s: %v (peak %.0f MB after %.0f ms)", c.id, c.err, c.peakRSSMB, c.wallMs)
	}
}

// runOracle measures the oracle workload: every experiment with the
// fast paths off, each in its own process under the RSS ceiling. Passes
// repeat until the run's seconds are spent; one pass takes longer than
// most runs, so usually there is exactly one.
func runOracle(o options, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	exps := registry.All()
	golden := harness.EmbeddedGolden()
	rng := rand.New(rand.NewPCG(o.seed, 0x0ac1e))
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var passMs, setup, rss []float64
	for len(passMs) == 0 || time.Now().Before(deadline) {
		var sum, peak float64
		for _, i := range rng.Perm(len(exps)) {
			id := exps[i].ID
			want, err := fs.ReadFile(golden, harness.GoldenName(id))
			if err != nil {
				return err
			}
			c := renderOracle(exe, id, want, oracleCeilingMB)
			c.record(rep)
			sum += c.wallMs
			peak = max(peak, c.peakRSSMB)
			if c.setupS > 0 {
				setup = append(setup, c.setupS)
			}
			rep.extra["oracle."+id] = map[string]any{"wall_ms": c.wallMs, "render_ms": c.renderMs,
				"peak_rss_mb": c.peakRSSMB, "ok": c.err == nil}
		}
		passMs = append(passMs, sum)
		rss = append(rss, peak)
	}
	rep.set("setup_s", median(setup), "s")
	rep.set("cold_ms", median(passMs), "ms")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.note("setup_s", median(setup), "s", len(setup))
	rep.note("pass_cold_ms", median(passMs), "ms", len(passMs))
	rep.note("peak_rss_mb", median(rss), "MB", len(rss))
	rep.note("fail_ratio", float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Attempted)
	return nil
}
