package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"maia/internal/apps/overflow"
	"maia/internal/harness"
	"maia/internal/machine"
	"maia/internal/maiad"
	"maia/internal/memsim"
	"maia/internal/npb"
	"maia/internal/pcie"
	"maia/internal/simfleet"
	"maia/internal/simmpi"
	"maia/internal/simomp"
	"maia/internal/vclock"
)

// span is one timed call recorded by the traced run, in nanoseconds
// since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the time child spans cover
}

// spans records spans in memory; they are written out once, at the end.
type spans struct {
	t0   time.Time
	list []span
	open []int // stack of indexes into list
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string) {
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.list[s.open[n-1]].ID
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: int64(time.Since(s.t0))})
	s.open = append(s.open, len(s.list)-1)
}

// end closes the innermost open span and returns its duration.
func (s *spans) end() time.Duration {
	i := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.list[i].End = int64(time.Since(s.t0))
	return time.Duration(s.list[i].End - s.list[i].Start)
}

// finish computes every span's self time. Spans nest strictly, so a
// parent's children never overlap each other.
func (s *spans) finish() []span {
	for i := range s.list {
		s.list[i].Self = s.list[i].End - s.list[i].Start
	}
	for _, sp := range s.list {
		if sp.Parent > 0 {
			s.list[sp.Parent-1].Self -= sp.End - sp.Start
		}
	}
	return s.list
}

// tracedRun gathers the per-layer metrics.
type tracedRun struct {
	o     options
	rep   *report
	spans *spans
}

// layerReps is how many times a repeatable layer call is timed; its
// metrics are the medians.
const layerReps = 3

// call times f inside a span named name, reps times, and records the
// median wall time as name (in unit, scaled from ms by scale) and the
// median heap allocations as the _mallocs twin. Heap statistics are read
// outside the span.
func (t *tracedRun) call(name, mallocName, unit string, scale float64, reps int, f func() error) {
	var times, allocs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m0)
		t.spans.begin(name)
		err := f()
		d := t.spans.end()
		runtime.ReadMemStats(&m1)
		t.rep.Attempted++
		if err != nil {
			t.rep.fail("%s: %v", name, err)
			return
		}
		times = append(times, ms(d)*scale)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	t.rep.set(name, median(times), unit)
	if mallocName != "" {
		t.rep.set(mallocName, median(allocs), "count")
	}
}

// layer opens a parent span around one layer's calls.
func (t *tracedRun) layer(name string, calls func()) {
	t.spans.begin(name)
	calls()
	t.spans.end()
}

// renderMallocIDs are the experiments whose render allocations are
// reported: the heaviest allocators of a warm pass, where an allocation
// change would show. The per-layer metric budget does not cover a
// twin for every experiment.
var renderMallocIDs = []string{
	"ext-fleet-mtbf", "ext-fleet-recovery", "ext-rack-npb", "ext-rack-overflow", "ext-stride",
	"fig5", "fig6", "fig11", "fig12", "fig13", "fig14", "fig20", "fig22", "fig25", "report",
}

// oracleHeavy are the ten experiments whose slow-path cost and memory
// the traced run measures, each in its own process.
var oracleHeavy = []string{"fig5", "fig6", "fig12", "fig13", "fig14", "fig20", "report",
	"ext-stride", "ext-rack-npb", "ext-rack-overflow"}

// knownOracleKills are the oracle experiments the traced run expects the
// RSS ceiling to kill, so a kill of one of them is not a failed
// operation: ext-rack-overflow passes the ceiling at this writing, and
// ext-rack-npb's peak depends on goroutine scheduling (see
// oracleCeilingMB). A kill of any other experiment is a failure. The
// oracle workload counts every kill, these too.
var knownOracleKills = []string{"ext-rack-overflow", "ext-rack-npb"}

// runTraced measures every layer's public entry points with the
// arguments the experiments pass, then per-experiment renders, the
// tracing overheads, the oracle's heaviest experiments and a short
// serve session. The layer calls come first so the memoized ones
// (StrideDerate, TableForModel) are timed cold.
func runTraced(o options, rep *report) error {
	t := &tracedRun{o: o, rep: rep, spans: newSpans()}
	env := harness.DefaultEnv()
	t.layers(env)
	if err := t.renders(); err != nil {
		return err
	}
	if err := t.tracerOverhead(); err != nil {
		return err
	}
	if err := t.maiadCalls(); err != nil {
		return err
	}
	if err := t.oracle(); err != nil {
		return err
	}
	if err := t.serve(); err != nil {
		return err
	}

	list := t.spans.finish()
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := writeJSONFile(path, list); err != nil {
		return err
	}
	top := slices.Clone(list)
	slices.SortFunc(top, func(a, b span) int { return int(b.Self - a.Self) })
	rep.linef("%d spans written to %s; largest self times:", len(list), path)
	for _, sp := range top[:min(10, len(top))] {
		rep.linef("  %-44s self %10.3f ms", sp.Name, float64(sp.Self)/1e6)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := rep.Metrics[n]
		rep.linef("%-48s %16.4f %s", n, m.Value, m.Unit)
	}
	return nil
}

func (t *tracedRun) layers(env harness.Env) {
	m, node := env.Model, env.Node
	timed := func(name string, reps int, f func() error) {
		t.call(name+"_ms", name+"_mallocs", "ms", 1, reps, f)
	}

	t.layer("memsim", func() {
		timed("memsim.stride_derate", 1, func() error { // memoized: the first call is the cold one
			for _, s := range []int{16, 32, 64} {
				memsim.StrideDerate(machine.SandyBridge(), s)
				memsim.StrideDerate(machine.XeonPhi5110P(), s)
			}
			return nil
		})
		timed("memsim.latency_curve", layerReps, func() error {
			memsim.LatencyCurve(node.HostProc, 4<<10, 64<<20)
			memsim.LatencyCurve(node.PhiProc, 4<<10, 64<<20)
			return nil
		})
		timed("memsim.bandwidth_curve", layerReps, func() error {
			memsim.BandwidthCurve(node.HostProc, 4<<10, 64<<20)
			memsim.BandwidthCurve(node.PhiProc, 4<<10, 64<<20)
			return nil
		})
		timed("memsim.stream_curve", layerReps, func() error {
			cfg := memsim.DefaultStreamConfig()
			memsim.StreamCurve(node, machine.Host, []int{1, 2, 4, 8, 12, 16}, cfg)
			memsim.StreamCurve(node, machine.Phi0, []int{1, 15, 30, 59, 90, 118, 150, 177, 200, 236}, cfg)
			return nil
		})
	})

	// simmpi: the largest message of each figure's sweep, on the host
	// and the 236-rank Phi configuration.
	host16 := simmpi.Config{Ranks: simmpi.HostPlacement(16, 1)}
	phi236 := simmpi.Config{Ranks: simmpi.PhiPlacement(machine.Phi0, 236, 4)}
	t.layer("simmpi", func() {
		timed("simmpi.ring", layerReps, func() error {
			for _, cfg := range []simmpi.Config{host16, phi236} {
				if _, err := simmpi.RingBandwidth(cfg, 1<<20, 3); err != nil {
					return err
				}
			}
			return nil
		})
		alltoall := 256 << 10
		for alltoall > 1 && !simmpi.AlltoallFeasible(machine.Phi0, machine.NewNode(), 236, alltoall) {
			alltoall /= 4
		}
		for _, c := range []struct {
			name string
			kind simmpi.CollectiveKind
			size int
		}{{"bcast", simmpi.BcastKind, 256 << 10}, {"allreduce", simmpi.AllreduceKind, 256 << 10},
			{"allgather", simmpi.AllgatherKind, 8 << 10}, {"alltoall", simmpi.AlltoallKind, alltoall}} {
			t.call("simmpi.collective_ms."+c.name, "simmpi.collective_mallocs."+c.name, "ms", 1, layerReps, func() error {
				for _, cfg := range []simmpi.Config{host16, phi236} {
					if _, err := simmpi.CollectiveTime(cfg, c.kind, c.size, 2); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})

	t.layer("simomp", func() {
		host := simomp.New(machine.HostPartition(node, 1))
		phi := simomp.New(machine.PhiThreadsPartition(node, machine.Phi0, 236))
		timed("simomp.sync", layerReps, func() error {
			for _, c := range simomp.Constructs() {
				simomp.MeasureSyncOverhead(host, c)
				simomp.MeasureSyncOverhead(phi, c)
			}
			return nil
		})
		timed("simomp.sched", layerReps, func() error {
			for _, s := range simomp.Schedules() {
				for _, chunk := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
					simomp.MeasureSchedOverhead(host, s, chunk)
					simomp.MeasureSchedOverhead(phi, s, chunk)
				}
			}
			return nil
		})
	})

	t.layer("npb", func() {
		timed("npb.omp_sweep", layerReps, func() error {
			for _, b := range npb.Fig19Benchmarks() {
				if _, _, err := npb.OMPThreadSweep(m, b, npb.ClassC, node); err != nil {
					return err
				}
			}
			return nil
		})
		timed("npb.mpi_run", layerReps, func() error { // Figure 20's rank sweep
			for _, b := range []npb.Benchmark{npb.CG, npb.MG, npb.FT, npb.LU, npb.BT, npb.SP} {
				phiRanks := []int{64, 128}
				if b == npb.BT || b == npb.SP {
					phiRanks = []int{64, 121, 169, 225}
				}
				if _, err := npb.MPIRun(m, b, npb.ClassC, machine.Host, 16, node); err != nil {
					return err
				}
				for _, r := range phiRanks {
					if _, err := npb.MPIRun(m, b, npb.ClassC, machine.Phi0, r, node); err != nil && !errors.Is(err, npb.ErrOOM) {
						return err
					}
				}
			}
			return nil
		})
		timed("npb.rack_run", layerReps, func() error { // ext-rack-npb's largest point
			for _, b := range []npb.Benchmark{npb.CG, npb.MG, npb.FT} {
				if _, err := npb.RackRun(m, b, npb.ClassC, 128, 16, node); err != nil {
					return err
				}
			}
			return nil
		})
		timed("npb.mg_offload", layerReps, func() error {
			for _, v := range npb.MGOffloadVariants() {
				if _, err := npb.MGOffload(m, npb.ClassC, node, v); err != nil {
					return err
				}
			}
			return nil
		})
	})

	t.layer("overflow", func() {
		timed("overflow.fig22", layerReps, func() error {
			_, _, err := overflow.Fig22(m, node)
			return err
		})
		timed("overflow.symmetric", layerReps, func() error { // Figure 23's combinations
			for _, pc := range []overflow.Combo{{Ranks: 4, Threads: 14}, {Ranks: 8, Threads: 14},
				{Ranks: 4, Threads: 28}, {Ranks: 8, Threads: 28}} {
				for _, sw := range []pcie.Software{pcie.PreUpdate, pcie.PostUpdate} {
					if _, err := overflow.SymmetricStepTime(m, node, overflow.SymmetricConfig{
						HostCombo: overflow.Combo{Ranks: 16, Threads: 1}, PhiCombo: pc, Software: sw}); err != nil {
						return err
					}
				}
			}
			return nil
		})
		timed("overflow.rack_step", layerReps, func() error { // ext-rack-overflow's largest point
			if _, err := overflow.RackStepTime(m, node, overflow.RackHostOnly(128)); err != nil {
				return err
			}
			_, err := overflow.RackStepTime(m, node, overflow.RackConfig{Nodes: 128,
				HostCombo: overflow.Combo{Ranks: 16, Threads: 1}, PhiCombo: overflow.Combo{Ranks: 8, Threads: 28}})
			return err
		})
	})

	t.layer("simfleet", func() {
		var prices *simfleet.PriceTable
		timed("simfleet.price_table", 1, func() error { // memoized: the first call is the cold one
			var err error
			prices, err = simfleet.TableForModel(m, node, 1)
			return err
		})
		if prices == nil {
			return
		}
		// The two goldens' shapes: ext-fleet-mtbf's harshest profile at
		// 128 nodes, and ext-fleet-recovery's saturated straggler fleet.
		profiles := simfleet.ProfileNames()
		shapes := []simfleet.Config{
			{Nodes: simfleet.DefaultNodes, Duration: 1200 * vclock.Second, Profile: profiles[len(profiles)-1],
				Remediate: true, Prices: prices},
			{Nodes: 64, Duration: 900 * vclock.Second, Profile: "none", Condition: "phi-straggler",
				Remediate: true, Load: 1.5, Prices: prices},
		}
		var perArrival []float64
		timed("simfleet.run", layerReps, func() error {
			start := time.Now()
			arrivals := 0
			for _, cfg := range shapes {
				st, err := simfleet.Run(cfg)
				if err != nil {
					return err
				}
				arrivals += st.Arrivals
			}
			perArrival = append(perArrival, float64(time.Since(start).Nanoseconds())/float64(max(arrivals, 1)))
			return nil
		})
		if len(perArrival) > 0 {
			t.rep.set("simfleet.ns_per_arrival", median(perArrival), "ns")
		}
	})
}

// renders times every experiment's render (harness.RenderBytes) in a
// warm process, and the traced run's own overhead: a pass with spans
// and heap statistics around each render minus one without.
func (t *tracedRun) renders() error {
	s, err := loadSuite(harness.EmbeddedGolden())
	if err != nil {
		return err
	}
	order := s.inOrder()
	s.pass(order) // warm the memos, as in a warm suite pass

	perExp := make([][]float64, len(s.exps))
	perMalloc := make([][]float64, len(s.exps))
	var plain, traced, passMallocs []float64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < layerReps; rep++ {
		t0 := time.Now()
		p := s.pass(order)
		plain = append(plain, ms(time.Since(t0)))
		t.countPass(p, len(s.exps))
		passMallocs = append(passMallocs, float64(p.mallocs))

		// The same pass with a span and heap statistics around each
		// render: the traced run's own instrumentation.
		t.spans.begin("harness.pass")
		for i, e := range s.exps {
			runtime.ReadMemStats(&m0)
			t.spans.begin("harness.render." + e.ID)
			out, err := harness.RenderBytes(e, s.env)
			d := t.spans.end()
			runtime.ReadMemStats(&m1)
			t.rep.Attempted++
			if err != nil {
				t.rep.fail("render %s: %v", e.ID, err)
			} else if !bytes.Equal(out, s.golden[i]) {
				t.rep.mismatch("render %s: output differs from golden", e.ID)
			}
			perExp[i] = append(perExp[i], ms(d))
			perMalloc[i] = append(perMalloc[i], float64(m1.Mallocs-m0.Mallocs))
		}
		traced = append(traced, ms(t.spans.end()))
	}
	for i, e := range s.exps {
		t.rep.set("harness.render_ms."+e.ID, median(perExp[i]), "ms")
		if slices.Contains(renderMallocIDs, e.ID) {
			t.rep.set("harness.render_mallocs."+e.ID, median(perMalloc[i]), "count")
		}
	}
	t.rep.set("harness.pass_mallocs", median(passMallocs), "count")
	t.rep.set("trace.overhead_ms", median(traced)-median(plain), "ms")
	return nil
}

// tracerOverhead measures simtrace.overhead_ratio in a child process.
func (t *tracedRun) tracerOverhead() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	t.spans.begin("simtrace.overhead")
	res := runWatched(exec.Command(exe, childCommand, "tracer"), 0, 2*time.Minute)
	t.spans.end()
	if res.Err != nil {
		return fmt.Errorf("tracer child: %w", res.Err)
	}
	var st tracerStats
	if err := json.Unmarshal(bytes.TrimSpace(res.Out), &st); err != nil {
		return fmt.Errorf("tracer child: %w", err)
	}
	t.rep.Attempted += 2 * len(registry.All())
	for _, f := range st.Failures {
		t.rep.mismatch("%s", f)
	}
	t.rep.set("simtrace.overhead_ratio", st.TracedMs/st.PlainMs, "ratio")
	return nil
}

// countPass records a pass's renders as attempted operations and its
// golden mismatches as wrong outputs.
func (t *tracedRun) countPass(p passResult, n int) {
	t.rep.Attempted += n
	for _, f := range p.failed {
		t.rep.mismatch("%s", f)
	}
}

// maiadCalls times the cache read and the JobSpec key path in-process.
func (t *tracedRun) maiadCalls() error {
	cache := maiad.NewCache()
	if _, err := cache.SeedFromGolden(registry, harness.EmbeddedGolden()); err != nil {
		return err
	}
	var keys []string
	var bodies [][]byte
	for _, e := range registry.All() {
		spec := harness.JobSpec{Experiment: e.ID}
		keys = append(keys, spec.Normalize().Hash())
		bodies = append(bodies, spec.MarshalCanonical(),
			harness.JobSpec{Experiment: e.ID, FaultPlan: coldFaultPlan, Seed: 7}.MarshalCanonical())
	}
	const gets, decodes = 200000, 20000
	var missing int
	t.layer("maiad", func() {
		t.call("maiad.cache_get_ns", "maiad.cache_get_mallocs", "ns", 1e6/gets, layerReps, func() error {
			for i := 0; i < gets; i++ {
				if _, ok := cache.Get(keys[i%len(keys)]); !ok {
					missing++
				}
			}
			return nil
		})
		t.call("harness.jobspec_key_us", "harness.jobspec_key_mallocs", "us", 1e3/decodes, layerReps, func() error {
			for i := 0; i < decodes; i++ {
				var spec harness.JobSpec
				if err := json.Unmarshal(bodies[i%len(bodies)], &spec); err != nil {
					return err
				}
				_ = spec.Normalize().Hash()
			}
			return nil
		})
	})
	if missing > 0 {
		return fmt.Errorf("%d default keys missing from the golden-seeded cache", missing)
	}
	// The call metrics are per operation.
	for name, n := range map[string]float64{"maiad.cache_get_mallocs": gets, "harness.jobspec_key_mallocs": decodes} {
		if m, ok := t.rep.Metrics[name]; ok {
			t.rep.set(name, m.Value/n, m.Unit)
		}
	}
	return nil
}

// oracle renders the ten heaviest experiments with the fast paths off,
// each in its own process under the RSS ceiling (see recordTraced).
func (t *tracedRun) oracle() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var known []string
	t.layer("oracle", func() {
		for _, id := range oracleHeavy {
			want, rerr := fs.ReadFile(harness.EmbeddedGolden(), harness.GoldenName(id))
			if rerr != nil {
				err = rerr
				return
			}
			t.spans.begin("oracle.render." + id)
			c := renderOracle(exe, id, want, oracleCeilingMB)
			t.spans.end()
			if c.recordTraced(t.rep) {
				known = append(known, id)
			}
		}
	})
	for _, id := range known {
		t.rep.linef("oracle %s: killed at the %.0f MB RSS ceiling, a known kill: render_ms reads the %v child timeout",
			id, oracleCeilingMB, childTimeout)
	}
	return err
}

// recordTraced counts c as one attempted operation of the traced run
// and sets its render time and peak. A child killed at the ceiling did
// not render, so its render time is childTimeout, the most a child may
// take, and its peak is what it reached before the kill: a child that
// outgrows the ceiling sooner cannot read as a faster one. The kill is
// a failed operation unless c is one of knownOracleKills, which
// recordTraced reports instead.
func (c oracleChild) recordTraced(rep *report) (knownKill bool) {
	rep.Attempted++
	renderMs := c.renderMs
	switch {
	case c.mismatch:
		rep.mismatch("oracle %s: %v", c.id, c.err)
	case c.killedAtCeiling:
		renderMs = ms(childTimeout)
		if knownKill = slices.Contains(knownOracleKills, c.id); !knownKill {
			rep.fail("oracle %s: %v (peak %.0f MB after %.0f ms)", c.id, c.err, c.peakRSSMB, c.wallMs)
		}
	case c.err != nil:
		rep.fail("oracle %s: %v", c.id, c.err)
	}
	rep.set("oracle.render_ms."+c.id, renderMs, "ms")
	rep.set("oracle.peak_rss_mb."+c.id, c.peakRSSMB, "MB")
	return knownKill
}

// serve runs a short session against a fresh server for the maiad
// counters, the server-side p99s and the generator's lateness.
func (t *tracedRun) serve() error {
	// The same generator set-up as the serve workload (see runServe).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := startServer(t.o.maiad)
	if err != nil {
		return err
	}
	err = t.serveSession(srv)
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	return err
}

func (t *tracedRun) serveSession(srv *server) error {
	t.spans.begin("serve.session")
	f, err := measureFixed(srv, t.o.seed, 4*fixedRate)
	t.spans.end()
	if err != nil {
		return err
	}
	t.rep.Attempted += len(f.reqs)
	for _, err := range f.failed {
		t.rep.mismatch("%v", err)
	}
	total := float64(max(f.hits+f.misses+f.coalesced, 1))
	t.rep.set("maiad.hit_ratio", float64(f.hits)/total, "ratio")
	t.rep.set("maiad.coalesced_ratio", float64(f.coalesced)/total, "ratio")
	// The server's histograms time the handler alone; the client's
	// latency adds the connection, the generator and any queueing.
	endpoints := map[string][]class{"jobs": {hot, cold}, "fleet": {fleet}, "sweeps": {sweep}, "lookup": {lookup}}
	for _, ep := range []string{"jobs", "fleet", "sweeps", "lookup"} {
		server := float64(f.after.Endpoints[ep].P99Ns) / 1e6
		t.rep.set("maiad.server_p99_ms."+ep, server, "ms")
		var client []float64
		for _, c := range endpoints[ep] {
			client = append(client, f.latencies(c)...)
		}
		t.rep.linef("maiad %-6s p99: server %.3f ms, client %.3f ms (n=%d)", ep, server, quantile(client, 0.99), len(client))
	}
	t.rep.set("serve.gen_late_ms", quantile(f.lateness(), 0.99), "ms")
	return nil
}
