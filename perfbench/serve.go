package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"maia/internal/harness"
)

// The serve workload's fixed settings. The fixed rate sits well below
// what a 2-CPU machine sustains, so its latencies measure service, not
// saturation; the ladder finds where saturation begins, and the report
// gives the fixed rate as a share of the ladder's max_rps.
const (
	// fixedRate is the offered load, in requests per second, at which
	// the class latencies are measured: under a tenth of the 1689 and
	// 2054 req/s that cmd/maiad-load's closed loop of 4 clients reached
	// on a 2-CPU machine, as CHANGES.md records. It is a choice, not a
	// rate taken from any traffic record.
	fixedRate = 150
	// ladderLimit is the p99 latency a ladder step must meet.
	ladderLimit = 50 * time.Millisecond
	// ladderStepRequests is each ladder step's length: enough requests
	// that its p99 has ten samples beyond it.
	ladderStepRequests = 1000
	// serveSetups is how many times a run boots the server to time
	// set-up; serveSessions of those boots, evenly spaced among the
	// rest, serve the measured traffic. A boot and its shutdown take
	// about 5 ms on a 2-CPU machine, and the median boot drifts over
	// seconds with the host, so the boots are many and spread over the
	// run.
	serveSetups   = 240
	serveSessions = 5
	// coldFaultPlan is re-seeded to mint never-seen cache keys. Fault
	// plans do not enter fig5, fig20 or ext-stride, so every cold answer
	// must still equal the golden.
	coldFaultPlan = "phi-straggler"
	// fleetExperiment is what fleet requests simulate, at fleetNodes.
	fleetExperiment = "ext-fleet-recovery"
	fleetNodes      = 8
)

// ladderRates are the offered loads, in requests per second, that
// max_rps steps through.
var ladderRates = []int{500, 1000, 2000, 4000}

// cheapExperiments render in about a millisecond in quick mode; their
// quick specs are the hot requests that are not golden defaults.
var cheapExperiments = []string{"fig7", "fig10", "fig13", "fig15", "fig16", "fig17", "fig22", "table1"}

// coldBlock is the cold requests' repeating pattern of full-mode
// heavyweights, shuffled per block.
var coldBlock = []string{"fig5", "fig20", "ext-stride"}

// coldGated is the cold experiment whose median latency is the result
// line's cold_ms. fig5's and ext-stride's cold renders are bound by
// memory bandwidth, and on a shared host their medians drift by a third
// between identical runs as neighbours come and go; fig20's closed-form
// replay keeps the cold serving path (JobSpec, render dispatch, cache
// write) in view at a steady render cost. The suite workload gates
// fig5 and ext-stride; all three cold medians are report lines.
const coldGated = "fig20"

// class is a kind of request in the serve mix.
type class int

const (
	hot class = iota
	cold
	fleet
	lookup
	sweep
	numClasses
)

var classNames = [numClasses]string{"hot", "cold", "fleet", "lookup", "sweep"}

// classBlock is the mix, shuffled per block of 100. The shares are
// cmd/maiad-load's defaults: -fleet-frac 0.1 sends 10 of 100 requests to
// /v1/fleet, and -hot 0.9 makes 81 of the other 90 cache reads and 9
// cold renders. Two departures: maiad-load replays one fixed fleet spec
// for 9 of its 10 fleet requests, while every fleet request here is a
// fresh-seed simulation, so the class measures the simulation path; and
// maiad-load sends no lookups or sweeps, so 4 lookups and 2 sweeps
// (chosen, not taken from any traffic record) come out of the 81 cache
// reads. Exact shares per block keep one run's mix from drifting from
// another's.
var classBlock = blockOf(map[class]int{hot: 75, lookup: 4, sweep: 2, cold: 9, fleet: 10})

func blockOf(counts map[class]int) []class {
	var b []class
	for c := hot; c < numClasses; c++ {
		for i := 0; i < counts[c]; i++ {
			b = append(b, c)
		}
	}
	return b
}

// request is one scheduled call and what its answer must be.
type request struct {
	class  class
	exp    string        // the experiment a cold request renders
	due    time.Duration // offset from the start of the phase
	method string
	path   string
	body   []byte
	// want are the outputs the answer must carry, in order (a sweep has
	// several); nil for fleet requests, whose outputs are checked after
	// the run by rendering their spec in-process.
	want [][]byte
	spec harness.JobSpec // the fleet spec
}

// sample is what happened to one request.
type sample struct {
	late    time.Duration // how long after its due time it was sent
	latency time.Duration // from its due time (see drive) until the answer arrived
	status  int
	body    []byte
	err     error
}

// mix draws requests for the serve workload. Everything the server
// receives comes from it, and it draws only from its seed.
type mix struct {
	rng     *rand.Rand
	classes []class           // the rest of the current class block
	colds   []string          // the rest of the current cold block
	golden  map[string][]byte // non-fleet experiment ID -> golden
	ids     []string          // keys of golden, in presentation order
	keys    map[string]string // default content address per ID
	quick   map[string][]byte // cheap experiment -> quick output
}

func newMix(seed uint64, golden map[string][]byte, keys map[string]string, quick map[string][]byte) *mix {
	m := &mix{rng: rand.New(rand.NewPCG(seed, 0x5e7e)), golden: golden, keys: keys, quick: quick}
	for _, e := range registry.All() {
		if _, ok := golden[e.ID]; ok {
			m.ids = append(m.ids, e.ID)
		}
	}
	return m
}

// draw takes the next item of a seed-shuffled repeating block.
func draw[T any](rng *rand.Rand, rest *[]T, block []T) T {
	if len(*rest) == 0 {
		*rest = slices.Clone(block)
		rng.Shuffle(len(*rest), func(i, j int) { (*rest)[i], (*rest)[j] = (*rest)[j], (*rest)[i] })
	}
	x := (*rest)[0]
	*rest = (*rest)[1:]
	return x
}

// goldenRequest asks for id's default spec: a read of the golden the
// cache was seeded with.
func goldenRequest(id string, golden map[string][]byte) request {
	return request{class: hot, method: "POST", path: "/v1/jobs",
		body: harness.JobSpec{Experiment: id}.MarshalCanonical(), want: [][]byte{golden[id]}}
}

// coldRequest asks for id in full mode under a fresh-seed fault plan: a
// key the cache has never seen, so a render and a cache write.
func coldRequest(rng *rand.Rand, id string, golden map[string][]byte) request {
	spec := harness.JobSpec{Experiment: id, FaultPlan: coldFaultPlan, Seed: rng.Uint64() | 1}
	return request{class: cold, exp: id, method: "POST", path: "/v1/jobs", body: spec.MarshalCanonical(), want: [][]byte{golden[id]}}
}

// fleetRequest asks for a fresh-seed fleet simulation.
func fleetRequest(rng *rand.Rand) request {
	spec := harness.JobSpec{Experiment: fleetExperiment, Quick: true, Seed: rng.Uint64() | 1,
		Fleet: &harness.FleetSpec{Nodes: fleetNodes}}
	return request{class: fleet, method: "POST", path: "/v1/fleet", body: spec.MarshalCanonical(), spec: spec}
}

// next draws one request of a seed-drawn class.
func (m *mix) next() request {
	c := draw(m.rng, &m.classes, classBlock)
	switch c {
	case hot:
		if m.rng.IntN(2) == 0 {
			return goldenRequest(m.ids[m.rng.IntN(len(m.ids))], m.golden)
		}
		id := cheapExperiments[m.rng.IntN(len(cheapExperiments))]
		return request{class: c, method: "POST", path: "/v1/jobs",
			body: harness.JobSpec{Experiment: id, Quick: true}.MarshalCanonical(), want: [][]byte{m.quick[id]}}
	case cold:
		return coldRequest(m.rng, draw(m.rng, &m.colds, coldBlock), m.golden)
	case fleet:
		return fleetRequest(m.rng)
	case lookup:
		id := m.ids[m.rng.IntN(len(m.ids))]
		return request{class: c, method: "GET", path: "/v1/jobs/" + m.keys[id], want: [][]byte{m.golden[id]}}
	}
	var specs []harness.JobSpec
	var want [][]byte
	for i := 0; i < 3; i++ {
		id := cheapExperiments[m.rng.IntN(len(cheapExperiments))]
		specs = append(specs, harness.JobSpec{Experiment: id, Quick: true})
		want = append(want, m.quick[id])
	}
	body, _ := json.Marshal(map[string]any{"specs": specs}) // plain structs always marshal
	return request{class: sweep, method: "POST", path: "/v1/sweeps", body: body, want: want}
}

// schedule draws n requests offered at rate per second, open-loop: a
// slow server does not slow the arrivals. Gaps are drawn uniformly
// between half and one and a half times the mean, so requests rarely
// collide at the fixed rate and a run's latencies measure service, not
// the luck of its arrival bursts; the ladder supplies the overload.
func (m *mix) schedule(n int, rate float64) []request {
	reqs := make([]request, n)
	mean := float64(time.Second) / rate
	var t time.Duration
	for i := range reqs {
		t += time.Duration(mean * (0.5 + m.rng.Float64()))
		reqs[i] = m.next()
		reqs[i].due = t
	}
	return reqs
}

// drive sends reqs to base on their schedule over at most conns
// connections. A request is sent when it is due and a connection is
// free. Its latency runs from its due time, so a stall also charges the
// requests queued behind it; late records how far the generator fell
// behind. One allowance: when the generator was asleep until a request
// fell due, the latency runs from when it woke, because Go's sleeps
// overshoot by up to a millisecond and that delay is the generator's own.
func drive(client *http.Client, base string, reqs []request, conns int) []sample {
	out := make([]sample, len(reqs))
	ready := make([]time.Time, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &out[i]
				s.late = time.Since(start.Add(reqs[i].due))
				s.status, s.body, s.err = call(client, base, reqs[i])
				s.latency = time.Since(ready[i])
			}
		}()
	}
	for i := range reqs {
		ready[i] = start.Add(reqs[i].due)
		if d := time.Until(ready[i]); d > 0 {
			time.Sleep(d)
			ready[i] = time.Now()
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func call(client *http.Client, base string, r request) (int, []byte, error) {
	req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// jobReply is the part of a maiad job answer the benchmark checks.
type jobReply struct {
	Output string `json:"output"`
}

// verify checks one answer: a 2xx status and, where the request names
// them, outputs byte-equal to the expected ones. Fleet outputs are
// compared with an in-process render of the same spec.
func verify(r request, s sample) error {
	if s.err != nil {
		return s.err
	}
	if s.status/100 != 2 {
		return fmt.Errorf("status %d: %s", s.status, lastLine(string(s.body)))
	}
	var outs []string
	if r.class == sweep {
		var sr struct{ Results []jobReply }
		if err := json.Unmarshal(s.body, &sr); err != nil {
			return err
		}
		for _, jr := range sr.Results {
			outs = append(outs, jr.Output)
		}
	} else {
		var jr jobReply
		if err := json.Unmarshal(s.body, &jr); err != nil {
			return err
		}
		outs = []string{jr.Output}
	}
	want := r.want
	if r.class == fleet {
		env, err := r.spec.Env()
		if err != nil {
			return err
		}
		e, _ := registry.ByID(r.spec.Experiment)
		out, err := harness.RenderBytes(e, env)
		if err != nil {
			return err
		}
		want = [][]byte{out}
	}
	if len(outs) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(outs), len(want))
	}
	for i := range outs {
		if outs[i] != string(want[i]) {
			return errors.New("output differs from the expected render")
		}
	}
	return nil
}

// server is a running maiad process.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration // process start until /healthz answered
	// setupCPU is the CPU time the server had used when /healthz answered.
	setupCPU time.Duration
	stderr   chan string // the log after the listening line, once it exits
}

// startServer boots bin on an ephemeral loopback port and waits until
// /healthz answers; the cache is seeded from the goldens before the
// listener opens.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stderr: make(chan string, 1)}
	addr := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "maiad: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
			log.WriteString(line + "\n")
		}
		if !sent {
			close(addr)
		}
		s.stderr <- log.String()
	}()
	fail := func(err error) (*server, error) {
		_ = cmd.Process.Kill() // it may already have exited
		_ = cmd.Wait()
		return nil, fmt.Errorf("maiad: %w: %s", err, lastLine(<-s.stderr))
	}
	select {
	case a, ok := <-addr:
		if !ok {
			return fail(errors.New("exited before listening"))
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		return fail(errors.New("not listening after 30s"))
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("/healthz not OK after 30s"))
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.setup = time.Since(start)
	if s.setupCPU = processCPU(cmd.Process.Pid); s.setupCPU == 0 {
		return fail(errors.New("its CPU clock cannot be read"))
	}
	return s, nil
}

// peakRSSMB is the server's resident-set high-water mark so far.
func (s *server) peakRSSMB() float64 {
	_, hwm := memoryMB(fmt.Sprint(s.cmd.Process.Pid))
	return hwm
}

// stop shuts the server down with SIGTERM and waits for it. A clean
// shutdown exits 0.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	log := <-s.stderr
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("maiad exit: %v: %s", err, lastLine(log))
	}
	return nil
}

// snapshot is the part of maiad's /metrics JSON the benchmark reads.
type snapshot struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Coalesced   int64 `json:"coalesced"`
	Endpoints   map[string]struct {
		P99Ns int64 `json:"p99_ns"`
	} `json:"endpoints"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveSession is one measured serve run against a booted server.
type serveSession struct {
	client *http.Client
	base   string
	conns  int
	mix    *mix
}

// servedGoldens maps every non-fleet experiment ID to its golden: the
// answer maiad gives for the experiment's default spec.
func servedGoldens() (map[string][]byte, error) {
	golden := map[string][]byte{}
	for _, e := range registry.All() {
		if e.Section == "fleet" {
			continue
		}
		data, err := fs.ReadFile(harness.EmbeddedGolden(), harness.GoldenName(e.ID))
		if err != nil {
			return nil, err
		}
		golden[e.ID] = data
	}
	return golden, nil
}

// probeSizes are the probes each boot runs, one per class: warmup
// untimed requests (the first cold render fills the server's
// process-wide memos), then timed ones, over conns connections that
// each send their next request as soon as the last is answered. Hot
// requests use four, so the server always has one waiting: a server
// that parks its threads between requests spends CPU time waking them,
// and how much moved with the host's load (one connection's per-request
// CPU time spread by 0.13 between runs, four connections' by 0.06).
var probeSizes = []struct {
	class                class
	warmup, timed, conns int
}{{hot, 20, 100, 4}, {cold, 1, 5, 1}, {fleet, 1, 5, 1}}

// probeRequests draws one probe's requests from rng: golden default
// specs for hot, fresh-seed coldGated renders for cold, fresh-seed
// simulations for fleet.
func probeRequests(c class, n int, rng *rand.Rand, ids []string, golden map[string][]byte) []request {
	reqs := make([]request, n)
	for i := range reqs {
		switch c {
		case hot:
			reqs[i] = goldenRequest(ids[rng.IntN(len(ids))], golden)
		case cold:
			reqs[i] = coldRequest(rng, coldGated, golden)
		default:
			reqs[i] = fleetRequest(rng)
		}
	}
	return reqs
}

// probeResult is what one probe measured.
type probeResult struct {
	// cpu is the server's CPU time per timed request. Time the host gave
	// other guests is not part of it.
	cpu time.Duration
	// latencies are the answered timed requests' latencies, in ms.
	latencies []float64
	failed    []error
}

// probe sends reqs to srv over conns connections, each sending its next
// request as soon as its last was answered, times all but the first
// warmup, and checks every answer once the last has arrived.
func probe(srv *server, reqs []request, warmup, conns int) probeResult {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Timeout: time.Minute, Transport: tr}
	samples := make([]sample, len(reqs))
	send := func(lo, hi int) {
		next := make(chan int)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					s := &samples[i]
					t0 := time.Now()
					s.status, s.body, s.err = call(client, srv.base, reqs[i])
					s.latency = time.Since(t0)
				}
			}()
		}
		for i := lo; i < hi; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	pid := srv.cmd.Process.Pid
	send(0, warmup)
	cpu0 := processCPU(pid)
	send(warmup, len(reqs))
	res := probeResult{cpu: (processCPU(pid) - cpu0) / time.Duration(len(reqs)-warmup)}
	for i, r := range reqs {
		if err := verify(r, samples[i]); err != nil {
			res.failed = append(res.failed, fmt.Errorf("%s probe %s: %w", classNames[r.class], r.path, err))
		} else if i >= warmup {
			res.latencies = append(res.latencies, ms(samples[i].latency))
		}
	}
	return res
}

// newServeSession loads the expected outputs and warms the quick specs,
// so hot requests are cache reads from the first measured request.
func newServeSession(base string, seed uint64) (*serveSession, error) {
	conns := runtime.NumCPU()
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	golden, err := servedGoldens()
	if err != nil {
		return nil, err
	}
	var infos []struct {
		ID         string `json:"id"`
		DefaultKey string `json:"default_key"`
	}
	if err := getJSON(client, base+"/v1/experiments", &infos); err != nil {
		return nil, err
	}
	keys := map[string]string{}
	for _, in := range infos {
		keys[in.ID] = in.DefaultKey
	}
	quick := map[string][]byte{}
	for _, id := range cheapExperiments {
		e, _ := registry.ByID(id)
		out, err := harness.RenderBytes(e, harness.DefaultEnv(harness.WithQuick(true)))
		if err != nil {
			return nil, err
		}
		quick[id] = out
		warm := request{method: "POST", path: "/v1/jobs", body: harness.JobSpec{Experiment: id, Quick: true}.MarshalCanonical(), want: [][]byte{out}}
		st, body, err := call(client, base, warm)
		if err := verify(warm, sample{status: st, body: body, err: err}); err != nil {
			return nil, fmt.Errorf("warming %s: %w", id, err)
		}
	}
	return &serveSession{client: client, base: base, conns: conns, mix: newMix(seed, golden, keys, quick)}, nil
}

// phase is the outcome of driving one schedule.
type phase struct {
	reqs    []request
	samples []sample
	failed  []error // one per failed request
}

func (s *serveSession) run(n int, rate float64) phase {
	reqs := s.mix.schedule(n, rate)
	p := phase{reqs: reqs, samples: drive(s.client, s.base, reqs, s.conns)}
	for i := range reqs {
		if err := verify(reqs[i], p.samples[i]); err != nil {
			p.failed = append(p.failed, fmt.Errorf("%s %s: %w", classNames[reqs[i].class], reqs[i].path, err))
		}
	}
	return p
}

// latenciesOf returns the latencies, in ms, of the requests keep selects
// that were answered with a 2xx status.
func (p phase) latenciesOf(keep func(request) bool) []float64 {
	var xs []float64
	for i, r := range p.reqs {
		if s := p.samples[i]; keep(r) && s.err == nil && s.status/100 == 2 {
			xs = append(xs, ms(s.latency))
		}
	}
	return xs
}

// latencies returns the latencies of class c (all classes when c is
// numClasses), in ms.
func (p phase) latencies(c class) []float64 {
	return p.latenciesOf(func(r request) bool { return c == numClasses || r.class == c })
}

// coldLatencies returns the latencies of the cold requests that rendered
// experiment id, in ms.
func (p phase) coldLatencies(id string) []float64 {
	return p.latenciesOf(func(r request) bool { return r.class == cold && r.exp == id })
}

// lateness returns how late each request was sent, in ms.
func (p phase) lateness() []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = ms(s.late)
	}
	return xs
}

// meetsLimit reports whether a ladder step held: no failed request
// (a failure misses any limit) and p99 within ladderLimit.
func (p phase) meetsLimit() bool {
	return len(p.failed) == 0 && quantile(p.latencies(numClasses), 0.99) <= ms(ladderLimit)
}

// runServe measures the serve workload. It boots a golden-seeded maiad
// serveSetups times to time set-up, and every boot runs the probes;
// every sessionEvery-th boot also serves a share of the fixed-rate
// phase, and the last of those also climbs the rate ladder. Spreading
// the phase over several server processes keeps one process's luck
// (where its threads land, how its heap paces) from setting a whole
// run's figures.
//
// The result line carries the server's CPU time per set-up and per
// probe request: latency moves with how much of this machine's CPUs the
// host lends to other guests (the hot median spread by 0.28 between
// identical runs), CPU time does not. Latencies are report lines.
func runServe(o options, rep *report) error {
	// The generator needs little CPU; one P keeps its idle threads from
	// spinning on the CPUs the server is measured on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	golden, err := servedGoldens()
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range registry.All() {
		if _, ok := golden[e.ID]; ok {
			ids = append(ids, e.ID)
		}
	}
	probeRNG := rand.New(rand.NewPCG(o.seed, 0x9f0be))
	var setups, setupWall, probedRSS []float64
	var probeCPU, probeLat [numClasses][]float64
	var fixed []fixedPhase
	var ladder []phase
	maxRPS := 0
	perSession := int(float64(o.seconds) * 3 / 5 * fixedRate / serveSessions)
	const sessionEvery = serveSetups / serveSessions
	for i := 0; i < serveSetups; i++ {
		srv, err := startServer(o.maiad)
		if err != nil {
			return err
		}
		setups = append(setups, srv.setupCPU.Seconds())
		setupWall = append(setupWall, srv.setup.Seconds())
		for _, ps := range probeSizes {
			p := probe(srv, probeRequests(ps.class, ps.warmup+ps.timed, probeRNG, ids, golden), ps.warmup, ps.conns)
			probeCPU[ps.class] = append(probeCPU[ps.class], ms(p.cpu))
			probeLat[ps.class] = append(probeLat[ps.class], p.latencies...)
			rep.Attempted += ps.warmup + ps.timed
			for _, err := range p.failed {
				rep.mismatch("%v", err)
			}
		}
		rss, _ := memoryMB(fmt.Sprint(srv.cmd.Process.Pid))
		probedRSS = append(probedRSS, rss)
		if k := i / sessionEvery; i%sessionEvery == 0 {
			var f fixedPhase
			f, err = measureFixed(srv, o.seed*serveSessions+uint64(k), perSession)
			fixed = append(fixed, f)
			if err == nil && k == serveSessions-1 {
				ladder, maxRPS = climb(f.sess)
			}
		}
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
	}

	var all phase
	var rss []float64
	var peak float64
	var hits, misses, coalesced int64
	for _, f := range fixed {
		all.reqs = append(all.reqs, f.reqs...)
		all.samples = append(all.samples, f.samples...)
		all.failed = append(all.failed, f.failed...)
		rss = append(rss, f.rss...)
		peak = max(peak, f.peakMB)
		hits += f.hits
		misses += f.misses
		coalesced += f.coalesced
	}
	for _, p := range append([]phase{all}, ladder...) {
		rep.Attempted += len(p.reqs)
		for _, err := range p.failed {
			rep.mismatch("%v", err)
		}
	}

	lat := all.latencies
	rep.set("setup_s", median(setups), "s")
	rep.set("cold_cpu_ms", median(probeCPU[cold]), "ms")
	rep.set("warm_cpu_ms", median(probeCPU[hot]), "ms")
	rep.set("fleet_cpu_ms", median(probeCPU[fleet]), "ms")
	rep.set("rss_mb", median(probedRSS), "MB")

	rep.linef("fixed rate %d req/s over %d servers, %d requests, %d connections, latency from each request's due time",
		fixedRate, len(fixed), len(all.reqs), runtime.NumCPU())
	rep.note("setup_cpu_s", median(setups), "s", len(setups))
	rep.note("setup_wall_s", median(setupWall), "s", len(setupWall))
	rep.note("peak_rss_mb", peak, "MB", len(fixed))
	rep.note("probed_rss_mb", median(probedRSS), "MB", len(probedRSS))
	rep.note("fixed_rss_mb", median(rss), "MB", len(rss))
	for _, ps := range probeSizes {
		name, xs := classNames[ps.class]+"_probe", probeLat[ps.class]
		rep.note(name+"_cpu_ms", median(probeCPU[ps.class]), "ms", len(probeCPU[ps.class]))
		rep.note(name+"_p50_ms", median(xs), "ms", len(xs))
		if p, ok := tailQuantile(len(xs)); ok {
			rep.note(fmt.Sprintf("%s_p%.0f_ms", name, 100*p), quantile(xs, p), "ms", len(xs))
		}
	}
	rep.note("hot_p50_us", 1000*median(lat(hot)), "us", len(lat(hot)))
	for c := hot; c < numClasses; c++ {
		xs := lat(c)
		if c != hot {
			rep.note(classNames[c]+"_p50_ms", median(xs), "ms", len(xs))
		}
		p, ok := tailQuantile(len(xs))
		switch {
		case !ok:
			rep.linef("%s tail: fewer than 100 samples (n=%d), none reported", classNames[c], len(xs))
		case c == hot:
			rep.note(fmt.Sprintf("hot_p%.0f_us", 100*p), 1000*quantile(xs, p), "us", len(xs))
		default:
			rep.note(fmt.Sprintf("%s_p%.0f_ms", classNames[c], 100*p), quantile(xs, p), "ms", len(xs))
		}
	}
	for _, id := range coldBlock {
		xs := all.coldLatencies(id)
		rep.note("cold_p50_ms."+id, median(xs), "ms", len(xs))
	}
	late := all.lateness()
	rep.note("gen_late_p50_ms", median(late), "ms", len(late))
	rep.note("gen_late_p99_ms", quantile(late, 0.99), "ms", len(late))

	var steps []map[string]any
	for i, p := range ladder {
		p99 := quantile(p.latencies(numClasses), 0.99)
		steps = append(steps, map[string]any{"rate": ladderRates[i], "requests": len(p.reqs),
			"p99_ms": p99, "failed": len(p.failed), "met": p.meetsLimit()})
		rep.linef("ladder %5d req/s: p99 %.3f ms over %d requests, %d failed, limit %v met=%v",
			ladderRates[i], p99, len(p.reqs), len(p.failed), ladderLimit, p.meetsLimit())
	}
	rep.extra["ladder"] = map[string]any{"rates": ladderRates, "limit_ms": ms(ladderLimit), "steps": steps}
	rep.note("max_rps", float64(maxRPS), "1/s", len(ladder))
	// How loaded the server was at the fixed rate. When the top step
	// held, max_rps understates the capacity and the share is an upper
	// bound.
	if maxRPS > 0 {
		rep.note("fixed_rate_share_of_max_rps", float64(fixedRate)/float64(maxRPS), "ratio", len(ladder))
	} else {
		rep.linef("fixed_rate_share_of_max_rps: no ladder step met the limit, none reported")
	}

	total := float64(max(hits+misses+coalesced, 1))
	rep.note("server_hit_ratio", float64(hits)/total, "ratio", int(total))
	rep.note("server_coalesced_ratio", float64(coalesced)/total, "ratio", int(total))
	rep.note("fail_ratio", float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Attempted)
	return nil
}

// fixedPhase is one server's share of the fixed-rate measurement.
type fixedPhase struct {
	phase
	sess *serveSession
	// hits, misses and coalesced are the server's cache counters over
	// the phase; after is its /metrics snapshot at the end.
	hits, misses, coalesced int64
	after                   snapshot
	// rss samples the server's resident set every rssEvery; peakMB is
	// its high-water mark. Both stop before the ladder, whose overload
	// would make them a measure of how far the ladder climbed.
	rss    []float64
	peakMB float64
}

// rssEvery is how often the server's resident set is sampled.
const rssEvery = 50 * time.Millisecond

// measureFixed warms a session on srv and drives n requests drawn from
// seed at fixedRate.
func measureFixed(srv *server, seed uint64, n int) (fixedPhase, error) {
	var f fixedPhase
	sess, err := newServeSession(srv.base, seed)
	if err != nil {
		return f, err
	}
	var before snapshot
	if err := getJSON(sess.client, srv.base+"/metrics?format=json", &before); err != nil {
		return f, err
	}
	stop := sampleRSS(srv.cmd.Process.Pid, rssEvery)
	f.phase = sess.run(n, fixedRate)
	f.rss = stop()
	f.peakMB = srv.peakRSSMB()
	if err := getJSON(sess.client, srv.base+"/metrics?format=json", &f.after); err != nil {
		return f, err
	}
	f.sess = sess
	f.hits = f.after.CacheHits - before.CacheHits
	f.misses = f.after.CacheMisses - before.CacheMisses
	f.coalesced = f.after.Coalesced - before.Coalesced
	return f, nil
}

// climb offers the ladder's rates in turn until a step misses the limit
// and returns the steps run and the highest rate that met it (0: none).
func climb(sess *serveSession) (steps []phase, maxRPS int) {
	for _, rate := range ladderRates {
		p := sess.run(ladderStepRequests, float64(rate))
		steps = append(steps, p)
		if !p.meetsLimit() {
			break
		}
		maxRPS = rate
	}
	return steps, maxRPS
}
