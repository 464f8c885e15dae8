package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"testing"
	"testing/fstest"
	"time"

	"maia/internal/harness"
)

// hogEnv makes the test binary, started as a child, allocate until it is
// killed, standing in for an oracle child that outgrows the ceiling.
const hogEnv = "PERFBENCH_TEST_HOG"

func TestMain(m *testing.M) {
	if os.Getenv(hogEnv) != "" {
		var keep [][]byte
		for i := 0; i < 64; i++ { // at most 1 GiB, touched so it is resident
			b := make([]byte, 16<<20)
			for j := range b {
				b[j] = 1
			}
			keep = append(keep, b)
		}
		time.Sleep(time.Minute)
		os.Exit(len(keep))
	}
	os.Exit(m.Run())
}

func TestPerturbedGoldenFails(t *testing.T) {
	golden := fstest.MapFS{}
	for _, e := range registry.All() {
		data, err := harness.EmbeddedGolden().Open(harness.GoldenName(e.ID))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(data); err != nil {
			t.Fatal(err)
		}
		data.Close()
		golden[harness.GoldenName(e.ID)] = &fstest.MapFile{Data: buf.Bytes()}
	}
	clean, err := loadSuite(golden)
	if err != nil {
		t.Fatal(err)
	}
	if st := suiteWorker(clean, 1, 0); len(st.Failures) != 0 {
		t.Fatalf("unperturbed goldens: %d failures: %v", len(st.Failures), st.Failures)
	}

	f := golden[harness.GoldenName("fig5")]
	f.Data = append(bytes.Clone(f.Data), '!')
	perturbed, err := loadSuite(golden)
	if err != nil {
		t.Fatal(err)
	}
	st := suiteWorker(perturbed, 1, 0)
	if len(st.Failures) == 0 || st.Attempted == 0 {
		t.Fatalf("perturbed fig5 golden: %d failures of %d attempted, want > 0", len(st.Failures), st.Attempted)
	}
	// A cold pass and rssPasses warm passes: fig5 misses in each.
	if len(st.Failures) != 1+rssPasses {
		t.Errorf("failures = %v, want fig5 %d times", st.Failures, 1+rssPasses)
	}
	if st := suiteWorker(perturbed, 1, -1); len(st.Failures) != 1 || len(st.WarmMs) != 0 {
		t.Errorf("cold pass only: failures = %v after %d warm passes, want fig5 once after none", st.Failures, len(st.WarmMs))
	}
}

func TestChildPastCeilingIsKilledAndCounted(t *testing.T) {
	t.Setenv(hogEnv, "1")
	const ceiling = 64
	start := time.Now()
	c := renderOracle(os.Args[0], "fig7", nil, ceiling)
	if !c.killedAtCeiling || c.err == nil {
		t.Fatalf("child not killed at the ceiling: %+v", c)
	}
	if c.peakRSSMB < ceiling {
		t.Errorf("peak %.0f MB, want at least the %d MB ceiling", c.peakRSSMB, ceiling)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("kill took %v", d)
	}
	rep := newReport()
	c.record(rep)
	if rep.Attempted != 1 || rep.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", rep.Attempted, rep.Failed)
	}
	if !rep.Correct {
		t.Error("a kill is a failed operation, not a wrong output")
	}
}

func TestTracedOracleKillReadsTimeoutAndFailsUnlessKnown(t *testing.T) {
	for _, tc := range []struct {
		id     string
		failed int
	}{{"fig14", 1}, {"ext-rack-overflow", 0}, {"ext-rack-npb", 0}} {
		c := oracleChild{id: tc.id, renderMs: 900, wallMs: 905, peakRSSMB: 2060,
			err: errors.New("RSS passed the ceiling"), killedAtCeiling: true}
		rep := newReport()
		known := c.recordTraced(rep)
		if rep.Attempted != 1 || rep.Failed != tc.failed || known != (tc.failed == 0) || !rep.Correct {
			t.Errorf("%s: attempted %d failed %d known %v correct %v, want 1, %d, %v, true",
				tc.id, rep.Attempted, rep.Failed, known, rep.Correct, tc.failed, tc.failed == 0)
		}
		if got := rep.Metrics["oracle.render_ms."+tc.id].Value; got != ms(childTimeout) {
			t.Errorf("%s: render_ms %v after a kill, want the %v timeout", tc.id, got, childTimeout)
		}
		if got := rep.Metrics["oracle.peak_rss_mb."+tc.id].Value; got != 2060 {
			t.Errorf("%s: peak_rss_mb %v, want the 2060 MB reached", tc.id, got)
		}
	}
	rep := newReport()
	oracleChild{id: "fig5", renderMs: 1800, peakRSSMB: 300}.recordTraced(rep)
	if rep.Failed != 0 || rep.Metrics["oracle.render_ms.fig5"].Value != 1800 {
		t.Errorf("a clean render: failed %d, render_ms %v, want 0 and 1800", rep.Failed, rep.Metrics["oracle.render_ms.fig5"].Value)
	}
}

// slowSchedule is n requests due every gap against a handler.
func slowSchedule(n int, gap time.Duration) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{class: hot, method: "GET", path: "/", due: time.Duration(i) * gap, want: [][]byte{[]byte("x")}}
	}
	return reqs
}

func TestSlowHandlerShowsInLatencyAndLateness(t *testing.T) {
	const service = 20 * time.Millisecond
	run := func(delay time.Duration) (latency, late float64) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			w.Write([]byte(`{"cache":"hit","output":"x"}`))
		}))
		defer srv.Close()
		reqs := slowSchedule(40, 5*time.Millisecond)
		p := phase{reqs: reqs, samples: drive(srv.Client(), srv.URL, reqs, 1)}
		for i := range reqs {
			if err := verify(reqs[i], p.samples[i]); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		return median(p.latencies(numClasses)), quantile(p.lateness(), 0.99)
	}
	fastLat, fastLate := run(0)
	slowLat, slowLate := run(service)
	// One connection serving a request every 20 ms while they fall due
	// every 5 ms: the backlog grows by 15 ms a request, so the median
	// request waits far longer than its own service time, and the
	// generator falls behind its schedule by the same backlog.
	if slowLat < 5*ms(service) {
		t.Errorf("slow handler: median latency from due time %.1f ms, want > %.0f ms", slowLat, 5*ms(service))
	}
	if slowLate < 10*ms(service) {
		t.Errorf("slow handler: p99 lateness %.1f ms, want > %.0f ms", slowLate, 10*ms(service))
	}
	if fastLat > ms(service) || fastLate > ms(service) {
		t.Errorf("fast handler: median latency %.1f ms, p99 lateness %.1f ms, want both < %.0f ms",
			fastLat, fastLate, ms(service))
	}
}

func TestServeMixDerivesFromSeed(t *testing.T) {
	golden := map[string][]byte{"fig4": []byte("g4"), "fig5": []byte("g5"), "fig20": []byte("g20"), "ext-stride": []byte("gs")}
	keys := map[string]string{"fig4": "k4", "fig5": "k5", "fig20": "k20", "ext-stride": "ks"}
	quick := map[string][]byte{}
	for _, id := range cheapExperiments {
		quick[id] = []byte(id)
	}
	draw := func(seed uint64) []request { return newMix(seed, golden, keys, quick).schedule(500, 250) }
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []request) bool {
		return slices.EqualFunc(x, y, func(p, q request) bool {
			return p.due == q.due && p.path == q.path && bytes.Equal(p.body, q.body)
		})
	}
	if !same(a, b) {
		t.Error("one seed drew two different schedules")
	}
	if same(a, c) {
		t.Error("two seeds drew the same schedule")
	}
	seen := map[string]bool{}
	for _, r := range a {
		if r.class == cold || r.class == fleet {
			if seen[string(r.body)] {
				t.Fatalf("a %s request repeats: %s", classNames[r.class], r.body)
			}
			seen[string(r.body)] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no cold or fleet requests in 500 draws")
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := newSpans()
	s.begin("parent")
	time.Sleep(2 * time.Millisecond)
	s.begin("child")
	time.Sleep(5 * time.Millisecond)
	child := s.end()
	total := s.end()
	list := s.finish()
	if list[1].Parent != list[0].ID {
		t.Fatalf("child's parent = %d, want %d", list[1].Parent, list[0].ID)
	}
	if got, want := time.Duration(list[0].Self), total-child; got != want {
		t.Errorf("parent self time %v, want %v", got, want)
	}
	if time.Duration(list[1].Self) != child {
		t.Errorf("leaf self time %v, want its duration %v", time.Duration(list[1].Self), child)
	}
}

func TestProcessCPUCountsWorkNotSleep(t *testing.T) {
	c0 := processCPU(0)
	if c0 <= 0 {
		t.Fatalf("this process's CPU clock read %v", c0)
	}
	// Spin until the clock has advanced 30 ms: it counts work.
	for deadline := time.Now().Add(10 * time.Second); processCPU(0)-c0 < 30*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatalf("10 s of spinning advanced the CPU clock by only %v", processCPU(0)-c0)
		}
	}
	c1 := processCPU(0)
	time.Sleep(200 * time.Millisecond)
	if d := processCPU(0) - c1; d > 50*time.Millisecond {
		t.Errorf("a 200 ms sleep used %v of CPU", d)
	}
}

func TestProbeTimesAndChecksEveryRequest(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"cache":"hit","output":"x"}`))
	}))
	defer hs.Close()
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	// The handler runs in this process, so the probe reads this
	// process's CPU clock as the server's.
	srv := &server{cmd: &exec.Cmd{Process: self}, base: hs.URL}
	reqs := slowSchedule(30, 0)
	reqs[25].want = [][]byte{[]byte("y")}
	p := probe(srv, reqs, 10, 3)
	if p.cpu <= 0 {
		t.Errorf("CPU per request %v, want > 0", p.cpu)
	}
	if len(p.latencies) != 19 || len(p.failed) != 1 {
		t.Errorf("%d latencies and %d failures, want 19 and 1 (the wrong answer)", len(p.latencies), len(p.failed))
	}
}
