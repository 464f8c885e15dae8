package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// suiteChildren is how many fresh processes run warm passes. Each
// gives one set-up, one cold pass and a share of the warm passes.
const suiteChildren = 15

// setupChildren is how many more processes only time set-up: it takes
// a few milliseconds and drifts over seconds with the host, so its
// median needs many samples, spread over the run (an equal share after
// each suite child).
const setupChildren = 105

// runSuite measures the suite workload: every experiment rendered in
// full mode, sequentially, fast paths on, each output byte-compared
// with its golden. Half the run is warm passes, half is cold passes:
// after each suite child, cold-only children (set-up and one cold pass
// each) run until that round's share of the cold half is spent. A cold
// pass's cost varies from one fresh process to the next, so its median
// takes about a hundred processes spread over the run; the 15 suite
// children alone gave medians that spread by 0.21 to 0.28 between runs.
//
// The result line carries CPU times: the host lends this machine's CPUs
// to other guests, and the wall time of identical runs spread by more
// than half when it did. Wall times are report lines.
func runSuite(o options, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	share := time.Duration(o.seconds) * time.Second / (2 * suiteChildren)
	var setup, setupWall, cold, coldWall, warm, warmWall, fleet, fleetWall, mallocs, peak, rss []float64
	ready := func(res procResult) {
		setup = append(setup, res.ReadyCPU.Seconds())
		setupWall = append(setupWall, res.Ready.Seconds())
	}
	child := func(name string, seed uint64, warm time.Duration) (workerStats, error) {
		var st workerStats
		cmd := exec.Command(exe, childCommand, "suite", "-seed", fmt.Sprint(seed), "-warm", warm.String())
		res := runWatched(cmd, 0, max(warm, 0)+2*time.Minute)
		if res.Err != nil {
			return st, fmt.Errorf("%s child: %w", name, res.Err)
		}
		if err := json.Unmarshal(bytes.TrimSpace(res.Out), &st); err != nil {
			return st, fmt.Errorf("%s child: %w", name, err)
		}
		rep.Attempted += st.Attempted
		for _, f := range st.Failures {
			rep.mismatch("%s", f)
		}
		ready(res)
		cold = append(cold, st.ColdCPUMs)
		coldWall = append(coldWall, st.ColdMs)
		return st, nil
	}
	seed := o.seed << 16
	for i := 0; i < suiteChildren; i++ {
		seed++
		st, err := child("suite", seed, share)
		if err != nil {
			return err
		}
		warm = append(warm, st.WarmCPUMs...)
		warmWall = append(warmWall, st.WarmMs...)
		fleet = append(fleet, st.FleetCPUMs...)
		fleetWall = append(fleetWall, st.FleetMs...)
		mallocs = append(mallocs, st.Mallocs...)
		peak = append(peak, st.PeakRSSMB)
		rss = append(rss, st.RSSMB)

		for t0 := time.Now(); time.Since(t0) < share; {
			seed++
			if _, err := child("cold", seed, -1); err != nil {
				return err
			}
		}
		for j := 0; j < setupChildren/suiteChildren; j++ {
			res := runWatched(exec.Command(exe, childCommand, "setup"), 0, time.Minute)
			if res.Err != nil {
				return fmt.Errorf("setup child %d: %w", j, res.Err)
			}
			ready(res)
		}
	}

	rep.set("setup_s", median(setup), "s")
	rep.set("cold_cpu_ms", median(cold), "ms")
	rep.set("warm_cpu_ms", median(warm), "ms")
	rep.set("fleet_cpu_ms", median(fleet), "ms")
	rep.set("rss_mb", median(rss), "MB")

	rep.note("setup_cpu_s", median(setup), "s", len(setup))
	rep.note("setup_wall_s", median(setupWall), "s", len(setupWall))
	rep.note("pass_cold_cpu_ms", median(cold), "ms", len(cold))
	rep.note("pass_cold_ms", median(coldWall), "ms", len(coldWall))
	rep.note("pass_warm_cpu_ms", median(warm), "ms", len(warm))
	rep.note("pass_warm_ms", median(warmWall), "ms", len(warmWall))
	if p, ok := tailQuantile(len(warmWall)); ok {
		rep.note(fmt.Sprintf("pass_warm_p%.0f_ms", 100*p), quantile(warmWall, p), "ms", len(warmWall))
	}
	rep.note("pass_fleet_cpu_ms", median(fleet), "ms", len(fleet))
	rep.note("pass_fleet_ms", median(fleetWall), "ms", len(fleetWall))
	rep.note("pass_mallocs", median(mallocs), "count", len(mallocs))
	rep.note("peak_rss_mb", median(peak), "MB", len(peak))
	rep.note("rss_mb", median(rss), "MB", len(rss))
	rep.note("fail_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Attempted)
	return nil
}
