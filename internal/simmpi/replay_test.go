package simmpi

import (
	"testing"

	"maia/internal/machine"
	"maia/internal/simfault"
	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// newTestWorld builds a world or fails the test.
func newTestWorld(t *testing.T, cfg Config, opts ...Option) *World {
	t.Helper()
	w, err := NewWorld(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestReplayRefusalReasons has one row per reason replayRefusal can
// give, plus eligible worlds that must get none.
func TestReplayRefusalReasons(t *testing.T) {
	host4 := Config{Ranks: HostPlacement(4, 1)}
	rack := Config{Ranks: RackPlacement(machine.Host, 4, 2, 1), Fabric: machine.NewRackFabric(4)}
	hetNodes := append(RackPlacement(machine.Host, 1, 4, 1), PhiPlacement(machine.Phi0, 4, 1)...)
	for i := 4; i < 8; i++ {
		hetNodes[i].Node = 1
	}
	allgather := []SeqStep{{Kind: AllgatherKind, Bytes: 64}}
	cases := []struct {
		name  string
		cfg   Config
		opts  []Option
		slow  bool
		steps []SeqStep
		want  string
	}{
		{"escape hatch", host4, nil, true, allgather, "MAIA_NO_FASTPATH set"},
		{"fault plan", host4, []Option{WithFaultPlan(simfault.PhiStraggler())}, false, allgather, "fault plan"},
		{"single rank", Config{Ranks: HostPlacement(1, 1)}, nil, false, allgather, "single rank"},
		{"mixed devices", Config{Ranks: append(HostPlacement(2, 1), PhiPlacement(machine.Phi0, 2, 1)...)},
			nil, false, allgather, "heterogeneous placement"},
		{"three nodes", Config{Ranks: RackPlacement(machine.Host, 3, 4, 1), Fabric: machine.NewRackFabric(3)},
			nil, false, allgather, "node count not a power of two"},
		{"host node and Phi node", Config{Ranks: hetNodes, Fabric: machine.NewRackFabric(2)},
			nil, false, allgather, "nodes differ"},
		{"rack bcast", rack, nil, false, []SeqStep{{Kind: BcastKind, Bytes: 64}},
			"rack bcast trees are not index-symmetric"},
		{"odd flat pair", Config{Ranks: HostPlacement(5, 1)}, nil, false, []SeqStep{{Kind: PairKind, Bytes: 64}},
			"pair exchange in an odd world"},
		{"odd per-node pair", Config{Ranks: RackPlacement(machine.Host, 2, 3, 1), Fabric: machine.NewRackFabric(2)},
			nil, false, []SeqStep{{Kind: PairKind, Bytes: 64}}, "pair exchange mixes intra- and inter-node pairs"},
		{"rack ring", rack, nil, false, []SeqStep{{Kind: RingKind, Bytes: 64}},
			"rack neighbour exchanges cross varying hop counts"},
		{"unknown kind", host4, nil, false, []SeqStep{{Kind: CollectiveKind(99)}}, "unknown step kind"},
		{"rack compute period", rack, nil, false, []SeqStep{{Kind: ComputeStep, ComputePer: []vclock.Time{1, 2, 3}}},
			"per-rank compute differs across nodes"},
		{"rack per-rank payload", rack, nil, false, []SeqStep{{Kind: PairKind, BytesPer: []int{64, 128}}},
			"per-rank payloads on a rack"},

		{"flat script", Config{Ranks: HostPlacement(6, 1)}, nil, false, []SeqStep{
			{ComputePer: []vclock.Time{1, 2, 3}, Kind: BcastKind, Bytes: 64},
			{Kind: AllreduceKind, Bytes: 8}, {Kind: AllgatherKind, Bytes: 64}, {Kind: AlltoallKind, Bytes: 64},
			{Kind: PairKind, BytesPer: []int{8, 16}}, {Kind: RingKind, Shift: 2, Bytes: 64}}, ""},
		{"rack script", rack, nil, false, []SeqStep{
			{ComputePer: []vclock.Time{1, 2}, Kind: AllreduceKind, Bytes: 8},
			{Kind: AllgatherKind, Bytes: 64}, {Kind: AlltoallKind, Bytes: 64}, {Kind: PairKind, Bytes: 64}}, ""},
		{"empty fault plan", host4, []Option{WithFaultPlan(&simfault.Plan{})}, false, allgather, ""},
	}
	for _, c := range cases {
		w := newTestWorld(t, c.cfg, c.opts...)
		var got string
		run := withFastPath
		if c.slow {
			run = withSlowPath
		}
		run(func() { got = w.replayRefusal(c.steps...) })
		if got != c.want {
			t.Errorf("%s: reason %q, want %q", c.name, got, c.want)
		}
	}

	// RepeatOp prices only the four collectives, on flat and rack worlds.
	withFastPath(func() {
		for _, cfg := range []Config{host4, rack} {
			w := newTestWorld(t, cfg)
			for _, kind := range []CollectiveKind{PairKind, RingKind, ComputeStep} {
				if _, ok := w.RepeatOp(kind, 64, 1); ok {
					t.Errorf("RepeatOp priced %v on a %d-rank world", kind, w.Size())
				}
			}
		}
	})
}

// TestFigureSweepsEngageReplay is the deterministic engine gate for
// Figures 10-14: every placement and operation they sweep must get no
// refusal, so each point prices in closed form.
func TestFigureSweepsEngageReplay(t *testing.T) {
	host16 := HostPlacement(16, 1)
	ring := [][]Location{host16}
	for _, c := range []struct{ ranks, tpc int }{{59, 1}, {118, 2}, {177, 3}, {236, 4}} {
		ring = append(ring, PhiPlacement(machine.Phi0, c.ranks, c.tpc))
	}
	coll := [][]Location{host16}
	for _, c := range []struct{ ranks, tpc int }{{64, 1}, {128, 2}, {236, 4}} {
		coll = append(coll, PhiPlacement(machine.Phi0, c.ranks, c.tpc))
	}
	withFastPath(func() {
		for _, locs := range ring {
			w := newTestWorld(t, Config{Ranks: locs})
			if r := w.replayRefusal(SeqStep{Kind: RingKind}); r != "" {
				t.Errorf("fig10 ring on %d ranks refused: %s", len(locs), r)
			}
		}
		for _, locs := range coll {
			w := newTestWorld(t, Config{Ranks: locs})
			for _, kind := range []CollectiveKind{BcastKind, AllreduceKind, AllgatherKind, AlltoallKind} {
				if r := w.replayRefusal(SeqStep{Kind: kind}); r != "" {
					t.Errorf("%v on %d ranks refused: %s", kind, len(locs), r)
				}
			}
		}
	})
}

// TestEmptyPlanReplaysLikeNil: a plan that injects nothing is the
// healthy machine, so a flat world under it replays and prices exactly
// as with no plan, as rack worlds always have.
func TestEmptyPlanReplaysLikeNil(t *testing.T) {
	cfg := Config{Ranks: PhiPlacement(machine.Phi0, 6, 2)}
	withFastPath(func() {
		for _, kind := range []CollectiveKind{BcastKind, AllreduceKind, AllgatherKind, AlltoallKind} {
			w := newTestWorld(t, cfg, WithFaultPlan(&simfault.Plan{}))
			empty, ok := w.RepeatOp(kind, 4096, 2)
			if !ok {
				t.Fatalf("%v: replay refused an empty fault plan", kind)
			}
			healthy, err := CollectiveTime(cfg, kind, 4096, 2)
			if err != nil {
				t.Fatal(err)
			}
			if empty != 2*healthy {
				t.Errorf("%v: empty plan prices %v, nil plan %v", kind, empty, 2*healthy)
			}
		}
	})
}

// mpiTraffic returns the message and byte counters a tracer recorded.
func mpiTraffic(tr *simtrace.Tracer) (msgs, bytes int64) {
	for _, c := range tr.Counters() {
		switch c.Key {
		case simtrace.CounterKey{Cat: simtrace.CatMPI, Name: "messages"}:
			msgs = c.Value
		case simtrace.CounterKey{Cat: simtrace.CatMPI, Name: "bytes"}:
			bytes = c.Value
		}
	}
	return msgs, bytes
}

// TestReplayTraceMatchesGoroutineRun pins the replay's aggregated span:
// its message and byte counters must equal those a traced goroutine run
// of the same world and script records — while the flat clocks are
// uniform, after they expand, on the wavefront, and on a rack where one
// replayed send stands for one per node. The span is named as before
// and ends at the makespan.
func TestReplayTraceMatchesGoroutineRun(t *testing.T) {
	host8 := Config{Ranks: HostPlacement(8, 1), SizeOnlyPayloads: true}
	phi6 := Config{Ranks: PhiPlacement(machine.Phi0, 6, 2), SizeOnlyPayloads: true}
	rack := Config{Ranks: RackPlacement(machine.Phi0, 4, 2, 1), Fabric: machine.NewRackFabric(4), SizeOnlyPayloads: true}
	expanding := []SeqStep{
		{Kind: AllgatherKind, Bytes: 512},
		{Compute: vclock.Microsecond, Kind: BcastKind, Bytes: 4096},
		{Kind: AllreduceKind, Bytes: 64},
		{Kind: RingKind, Shift: 2, BytesPer: []int{64, 128, 256}},
	}
	rackScript := []SeqStep{
		{ComputePer: []vclock.Time{1, 2}, Kind: AllreduceKind, Bytes: 64},
		{Kind: AllgatherKind, Bytes: 4096}, {Kind: AlltoallKind, Bytes: 256}, {Kind: PairKind, Bytes: 128},
	}
	pipeline := func(w *World) (vclock.Time, bool) { return w.RepeatPipeline(2048, 5, vclock.Microsecond) }
	cases := []struct {
		name, span string
		cfg        Config
		replay     func(w *World) (vclock.Time, bool)
		body       func(r *Rank)
	}{
		{"uniform collective", "MPI_Allgather[rd] x3", host8,
			func(w *World) (vclock.Time, bool) { return w.RepeatOp(AllgatherKind, 1024, 3) },
			func(r *Rank) { seqBody(r, []SeqStep{{Kind: AllgatherKind, Bytes: 1024}}, 3) }},
		{"uniform ring", "MPI_Sendrecv x2", host8,
			func(w *World) (vclock.Time, bool) { return w.RepeatSendrecv(9000, 2) },
			func(r *Rank) { seqBody(r, []SeqStep{{Kind: RingKind, Bytes: 9000}}, 2) }},
		{"expanded script", "seq x2", phi6,
			func(w *World) (vclock.Time, bool) { return w.RepeatSeq(expanding, 2) },
			func(r *Rank) { seqBody(r, expanding, 2) }},
		{"pipeline", "pipeline x5", host8, pipeline, pipelineBody(2048, 5, vclock.Microsecond)},
		{"rack collective", "MPI_AlltoAll[hier:pairwise] x2", rack,
			func(w *World) (vclock.Time, bool) { return w.RepeatOp(AlltoallKind, 256, 2) },
			func(r *Rank) { seqBody(r, []SeqStep{{Kind: AlltoallKind, Bytes: 256}}, 2) }},
		{"rack script", "rack-seq[pair] x2", rack,
			func(w *World) (vclock.Time, bool) { return w.RepeatSeq(rackScript, 2) },
			func(r *Rank) { seqBody(r, rackScript, 2) }},
	}
	for _, c := range cases {
		fastTr, slowTr := simtrace.New(), simtrace.New()
		var total vclock.Time
		var ok bool
		withFastPath(func() { total, ok = c.replay(newTestWorld(t, c.cfg, WithTracer(fastTr, ""))) })
		if !ok {
			t.Fatalf("%s: replay refused", c.name)
		}
		slow := newTestWorld(t, c.cfg, WithTracer(slowTr, ""))
		if err := slow.Run(c.body); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if total != slow.MaxTime() {
			t.Errorf("%s: replay makespan %v, goroutine run %v", c.name, total, slow.MaxTime())
		}
		msgs, bytes := mpiTraffic(fastTr)
		wantMsgs, wantBytes := mpiTraffic(slowTr)
		if msgs != wantMsgs || bytes != wantBytes {
			t.Errorf("%s: replay counted %d messages / %d bytes, goroutine run %d / %d",
				c.name, msgs, bytes, wantMsgs, wantBytes)
		}
		spans := fastTr.Spans()
		if len(spans) != 1 || spans[0].Name != c.span || spans[0].End != total || spans[0].Bytes != bytes {
			t.Errorf("%s: replay spans %+v, want one %q ending at %v with %d bytes", c.name, spans, c.span, total, bytes)
		}
	}
}
