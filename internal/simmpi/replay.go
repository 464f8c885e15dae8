package simmpi

import (
	"fmt"
	"os"

	"maia/internal/simtrace"
	"maia/internal/vclock"
)

// The replay prices repeated collectives, ring exchanges, scripts and
// the LU wavefront without spawning rank goroutines or moving messages.
// It steps rank clocks through the exact float recurrences of Rank.send
// and recvAt, visiting every operation after the ones it depends on.
// Messages match per (src, tag) in program order, so replaying the
// ranks in dependency order reproduces each clock bit for bit, not just
// closely: a bcast parent before its children, reduce children before
// their parent, and all sends of a round before its receives.
//
// The replay rests on homogeneity. When every rank has the same
// placement, transferCost is the same for every pair. Two symmetries
// then compress the clock vector:
//
//   - Flat worlds keep one clock per rank, collapsed to t[0] while every
//     clock is provably equal. A symmetric round (recursive doubling,
//     ring, pairwise exchange) is then one exchange on t[0]. The first
//     step that breaks equality expands t to every rank, once: a
//     binomial tree, a linear scatter, per-rank compute or payloads, or
//     the wavefront.
//   - Rack worlds of identical nodes (same per-node layout on every
//     node, power-of-two node count) keep one representative node's
//     perNode clocks. Intra-node phases run the same local program on
//     every node. Each inter-node round pairs a leader with a partner at
//     the same hop distance, whose clock equals its own. So local rank
//     j's clock is the same on every node, and one send stands for one
//     per node.
//
// replayRefusal names what breaks these arguments; the caller then
// takes the goroutine engine.

// noFastPathEnv force-disables the replay process-wide (the same knob
// memsim honors).
var noFastPathEnv = os.Getenv("MAIA_NO_FASTPATH") != ""

// replayRefusal returns why the replay cannot price steps on w, or ""
// when it can. A ring step also stands for RepeatSendrecv and the
// pipeline: both are neighbour exchanges along the rank line.
func (w *World) replayRefusal(steps ...SeqStep) string {
	switch {
	case noFastPathEnv:
		return "MAIA_NO_FASTPATH set"
	case w.cfg.Faults.Enabled():
		return "fault plan"
	case w.size < 2:
		return "single rank"
	}
	rack := w.rack != nil
	if !rack {
		for _, l := range w.cfg.Ranks {
			if l != w.cfg.Ranks[0] {
				return "heterogeneous placement"
			}
		}
	} else {
		if n := w.rack.nodes; n&(n-1) != 0 {
			return "node count not a power of two"
		}
		for i, l := range w.cfg.Ranks {
			l0 := w.cfg.Ranks[i%w.rack.perNode]
			if l.Device != l0.Device || l.ThreadsPerCore != l0.ThreadsPerCore {
				return "nodes differ"
			}
		}
	}
	for _, st := range steps {
		switch st.Kind {
		case ComputeStep, AllreduceKind, AllgatherKind, AlltoallKind:
		case BcastKind:
			if rack {
				return "rack bcast trees are not index-symmetric"
			}
		case PairKind:
			if !rack && w.size%2 != 0 {
				return "pair exchange in an odd world"
			}
			// id^1 pairs stay intra-node when perNode is even; with one
			// rank per node they are uniform one-hop leader exchanges.
			if rack && w.rack.perNode > 1 && w.rack.perNode%2 != 0 {
				return "pair exchange mixes intra- and inter-node pairs"
			}
		case RingKind:
			if rack {
				return "rack neighbour exchanges cross varying hop counts"
			}
		default:
			return "unknown step kind"
		}
		if rack && st.ComputePer != nil && w.rack.perNode%len(st.ComputePer) != 0 {
			return "per-rank compute differs across nodes"
		}
		if rack && st.BytesPer != nil {
			return "per-rank payloads on a rack"
		}
	}
	return ""
}

// replay is the clock state of one closed-form run.
type replay struct {
	w *World
	// t holds the clocks: one per rank on a flat world (only t[0] while
	// uniform), one per local rank of the representative node on a rack.
	t []vclock.Time
	// post holds the post times of sends in flight, keyed by whichever
	// end is unique to each message: the receiver in a bcast or scatter,
	// the sender in a round, a reduce or a gather.
	post []vclock.Time
	// uniform reports that t[0] stands for every rank of a flat world.
	uniform bool
	// weight is how many world messages one replayed send stands for:
	// every rank while uniform, one once expanded, one per rack node.
	weight int64
	// msgs and bytes count the world's traffic for the trace.
	msgs, bytes int64
	// key and last memoize the last transferCost call (see cost).
	key  [3]int
	last price
}

func newReplay(w *World) *replay {
	if w.rack != nil {
		R := w.rack.perNode
		return &replay{w: w, t: make([]vclock.Time, R), post: make([]vclock.Time, R), weight: int64(w.rack.nodes)}
	}
	return &replay{w: w, t: make([]vclock.Time, 1), uniform: true, weight: int64(w.size)}
}

// expand gives every rank of a flat world its own clock, equal to the
// collapsed one. It is a no-op once expanded and on rack worlds.
func (s *replay) expand() {
	if !s.uniform {
		return
	}
	n := s.w.size
	t := make([]vclock.Time, n)
	for j := range t {
		t[j] = s.t[0]
	}
	s.t, s.post, s.uniform, s.weight = t, make([]vclock.Time, n), false, 1
}

// price is one message's cost on its transport (see transferCost).
type price struct {
	sendSide, flight vclock.Time
	rendezvous       bool
}

// sent returns the sender's clock after posting at clock t: Rank.send.
func (p price) sent(t vclock.Time) vclock.Time { return t + p.sendSide }

// landed returns the receiver's clock t after it matches a message
// posted at tsPost: recvAt, where a rendezvous transfer starts once both
// sides are ready.
func (p price) landed(t, tsPost vclock.Time) vclock.Time {
	start := tsPost
	if p.rendezvous {
		start = vclock.Max(tsPost, t)
	}
	if done := start + p.flight; done > t {
		return done
	}
	return t
}

// cost returns transferCost(a, b, n), reusing the last answer when the
// key repeats. A flat world prices every pair alike, so its key is the
// size alone. The zero key never matches: a rank does not message
// itself.
func (s *replay) cost(a, b, n int) price {
	if s.w.rack == nil {
		a, b = 0, 1
	}
	if k := [3]int{a, b, n}; k != s.key {
		s.key = k
		s.last.sendSide, s.last.flight, s.last.rendezvous = s.w.transferCost(a, b, n)
	}
	return s.last
}

// send posts n bytes from src to dst and returns the post time.
func (s *replay) send(src, dst, n int) vclock.Time {
	tsPost := s.t[src]
	s.t[src] = s.cost(src, dst, n).sent(tsPost)
	s.msgs += s.weight
	s.bytes += s.weight * int64(n)
	return tsPost
}

// recv matches on dst the n bytes src posted at tsPost.
func (s *replay) recv(dst, src, n int, tsPost vclock.Time) {
	s.t[dst] = s.cost(src, dst, n).landed(s.t[dst], tsPost)
}

// exchange is one symmetric round on t[0]: send n bytes to peer, then
// receive the n bytes peer posted at the same clock. peer's placement
// mirrors member 0's, so its message costs what member 0's did.
func (s *replay) exchange(peer, n int) {
	tsPost := s.send(0, peer, n)
	s.t[0] = s.cost(0, peer, n).landed(s.t[0], tsPost)
}

// round replays one symmetric round over the group: member j posts its
// payload to j^mask (mask > 0) or j+shift, then receives from j^mask or
// j-shift. Payloads are n bytes, or per[j%len(per)] when per is set.
func (s *replay) round(mask, shift, n int, per []int) {
	if per != nil {
		s.expand()
	}
	if s.uniform {
		s.exchange(1, n)
		return
	}
	m := len(s.t)
	for j := 0; j < m; j++ {
		dst := (j + shift) % m
		if mask > 0 {
			dst = j ^ mask
		}
		s.post[j] = s.send(j, dst, stepRankBytes(j, n, per))
	}
	for j := 0; j < m; j++ {
		src := (j - shift + m) % m
		if mask > 0 {
			src = j ^ mask
		}
		s.recv(j, src, stepRankBytes(src, n, per), s.post[src])
	}
}

// bcastTree replays the binomial broadcast of n bytes from member 0
// over the group [0, len(t)). Ascending order visits each member after
// its parent j - lowbit(j), keeping its receive-then-send order.
func (s *replay) bcastTree(n int) {
	s.expand()
	m := len(s.t)
	for j := 0; j < m; j++ {
		mask := j & -j
		if j == 0 {
			mask = 1
			for mask < m {
				mask <<= 1
			}
		} else {
			s.recv(j, j-mask, n, s.post[j])
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if j+mask < m {
				s.post[j+mask] = s.send(j, j+mask, n)
			}
		}
	}
}

// reduceTree replays the binomial reduce of n bytes to member 0.
// Descending order visits each member after its children j + mask.
func (s *replay) reduceTree(n int) {
	s.expand()
	m := len(s.t)
	for j := m - 1; j >= 0; j-- {
		for mask := 1; mask < m; mask <<= 1 {
			if j&mask != 0 {
				s.post[j] = s.send(j, j-mask, n)
				break
			}
			if j+mask < m {
				s.recv(j, j+mask, n, s.post[j+mask])
			}
		}
	}
}

// scatter replays member 0's linear scatter of n-byte blocks: the sends
// in ascending destination order, then each destination's receive.
func (s *replay) scatter(n int) {
	s.expand()
	for j := 1; j < len(s.t); j++ {
		s.post[j] = s.send(0, j, n)
	}
	for j := 1; j < len(s.t); j++ {
		s.recv(j, 0, n, s.post[j])
	}
}

// gather replays the linear gather of n-byte blocks to member 0: every
// other member's send, then member 0's receives in ascending order.
func (s *replay) gather(n int) {
	s.expand()
	for j := 1; j < len(s.t); j++ {
		s.post[j] = s.send(j, 0, n)
	}
	for j := 1; j < len(s.t); j++ {
		s.recv(0, j, n, s.post[j])
	}
}

// step replays one script step, its compute and then its operation, and
// returns the algorithm name for the trace.
func (s *replay) step(st SeqStep) string {
	if st.ComputePer != nil {
		s.expand()
		for j := range s.t {
			if c := st.ComputePer[j%len(st.ComputePer)]; c > 0 {
				s.t[j] += c
			}
		}
	} else if st.Compute > 0 {
		for j := range s.t {
			s.t[j] += st.Compute
		}
	}
	switch st.Kind {
	case ComputeStep:
		return "compute"
	case PairKind:
		if s.w.rack != nil && s.w.rack.perNode == 1 {
			s.exchange(1, st.Bytes)
			return "pair-inter"
		}
		s.round(1, 0, st.Bytes, st.BytesPer)
		return "pair"
	case RingKind:
		s.round(0, seqShift(st, s.w.size), st.Bytes, st.BytesPer)
		return "ring"
	}
	return s.collective(st.Kind, st.Bytes)
}

// collective replays one collective with the algorithm the goroutine
// engine selects (collectives.go on flat worlds, hier.go on racks) and
// returns its name.
func (s *replay) collective(kind CollectiveKind, nb int) string {
	if kind == AllreduceKind {
		nb = 8 * max(nb/8, 1)
	}
	if s.w.rack != nil {
		return s.hierCollective(kind, nb)
	}
	n := s.w.size
	switch kind {
	case BcastKind:
		return s.bcast(nb)
	case AllreduceKind:
		if n&(n-1) == 0 {
			for mask := 1; mask < n; mask <<= 1 {
				s.round(mask, 0, nb, nil)
			}
			return "rd"
		}
		s.reduceTree(nb)
		s.bcast(nb)
		return "reduce+bcast"
	case AllgatherKind:
		return s.allgather(nb)
	}
	// AlltoallKind: the pairwise exchange.
	for step := 1; step < n; step++ {
		s.round(0, step, nb, nil)
	}
	return "pairwise"
}

// bcast mirrors bcastImpl: the binomial tree for short messages, van de
// Geijn (linear scatter + allgather of blocks) past BcastLongBytes.
func (s *replay) bcast(nb int) string {
	if n := s.w.size; nb > s.w.cfg.BcastLongBytes && n > 2 {
		block := (nb + n - 1) / n
		s.scatter(block)
		s.allgather(block)
		return "vandegeijn"
	}
	s.bcastTree(nb)
	return "binomial"
}

// allgather mirrors allgatherImpl: recursive doubling for small blocks
// on power-of-two worlds, the ring otherwise.
func (s *replay) allgather(m int) string {
	n := s.w.size
	if n&(n-1) == 0 && m <= s.w.cfg.AllgatherSwitchBytes {
		for mask := 1; mask < n; mask <<= 1 {
			s.round(mask, 0, mask*m, nil)
		}
		return "rd"
	}
	for step := 0; step < n-1; step++ {
		s.round(0, 1, m, nil)
	}
	return "ring"
}

// hierCollective mirrors hier.go's three phases on the representative
// node: local funnel to the leader (t[0]), leader rounds with the node
// at the same hop distance as the partner, local distribution. Bcast is
// refused on racks, so it never gets here.
func (s *replay) hierCollective(kind CollectiveKind, m int) string {
	R, N := s.w.rack.perNode, s.w.rack.nodes
	switch kind {
	case AllreduceKind:
		s.reduceTree(m)
		for mask := 1; mask < N; mask <<= 1 {
			s.exchange(mask*R, m)
		}
		s.bcastTree(m)
		return "hier:rd"
	case AllgatherKind:
		nb := R * m
		s.gather(m)
		algo := "hier:rd"
		if nb <= s.w.cfg.AllgatherSwitchBytes {
			for mask := 1; mask < N; mask <<= 1 {
				s.exchange(mask*R, mask*nb)
			}
		} else {
			// Gray-code ring: every step is a one-hop exchange of one
			// node block; node 1 is the representative one-hop partner.
			algo = "hier:gray-ring"
			for step := 0; step < N-1; step++ {
				s.exchange(R, nb)
			}
		}
		s.bcastTree(N * nb)
		return algo
	}
	// AlltoallKind: whole buffers up, R*R-block bundles across, rows down.
	full := N * R * m
	s.gather(full)
	for step := 1; step < N; step++ {
		s.exchange(step*R, R*R*m)
	}
	s.scatter(full)
	return "hier:pairwise"
}

// done returns the makespan and, with a tracer attached, records the
// batch as one aggregated span plus the world-wide message and byte
// counters a full run would have accumulated. name is only called when
// tracing, so untraced runs format nothing.
func (s *replay) done(name func() string) (vclock.Time, bool) {
	total := vclock.MaxOf(s.t...)
	if tr := s.w.cfg.Tracer; tr != nil {
		track := s.w.cfg.TraceLabel
		if track == "" {
			track = "repeat"
		}
		tr.Span(track, simtrace.CatMPI, name(), 0, total, s.bytes)
		tr.Count(simtrace.CatMPI, "messages", s.msgs)
		tr.Count(simtrace.CatMPI, "bytes", s.bytes)
	}
	return total, true
}

// RepeatOp prices iters identical back-to-back collectives of the given
// per-rank message size in one closed-form replay and returns the total
// virtual time. kind must be one of the four collective kinds. ok is
// false when the goroutine engine is needed (see replayRefusal):
// heterogeneous placement, a fault plan, a single-rank world, Bcast on
// a rack, or the MAIA_NO_FASTPATH escape hatch.
//
// RepeatOp does not populate per-rank profiles or final clocks; callers
// use the returned time. With a tracer attached it emits one aggregated
// span covering the whole batch (name "op[algo] xN") instead of the
// per-operation spans of a full run.
func (w *World) RepeatOp(kind CollectiveKind, msgBytes, iters int) (vclock.Time, bool) {
	if kind > AlltoallKind || w.replayRefusal(SeqStep{Kind: kind}) != "" {
		return 0, false
	}
	s, algo := newReplay(w), ""
	for i := 0; i < iters; i++ {
		algo = s.collective(kind, msgBytes)
	}
	return s.done(func() string { return fmt.Sprintf("%s[%s] x%d", kind, algo, iters) })
}

// RepeatSendrecv prices iters ring exchanges (each rank sends msgBytes
// right and receives msgBytes from the left, the Figure 10 loop) under
// the same eligibility rules as RepeatOp. Rack worlds take the
// goroutine engine: the ring's node-boundary exchanges cross varying
// hop counts.
func (w *World) RepeatSendrecv(msgBytes, iters int) (vclock.Time, bool) {
	if w.replayRefusal(SeqStep{Kind: RingKind}) != "" {
		return 0, false
	}
	s := newReplay(w)
	for i := 0; i < iters; i++ {
		s.round(0, 1, msgBytes, nil)
	}
	return s.done(func() string { return fmt.Sprintf("MPI_Sendrecv x%d", iters) })
}

// RepeatSeq prices a script in closed form when the world and every
// step qualify (see replayRefusal). ok is false when the goroutine
// engine is needed.
func (w *World) RepeatSeq(steps []SeqStep, iters int) (vclock.Time, bool) {
	if w.replayRefusal(steps...) != "" {
		return 0, false
	}
	s, algo := newReplay(w), ""
	for i := 0; i < iters; i++ {
		for _, st := range steps {
			algo = s.step(st)
		}
	}
	return s.done(func() string {
		switch {
		case w.rack == nil:
			return fmt.Sprintf("seq x%d", iters)
		case len(steps) == 1 && steps[0].Kind != ComputeStep:
			return fmt.Sprintf("%s[%s] x%d", steps[0].Kind, algo, iters)
		}
		return fmt.Sprintf("rack-seq[%s] x%d", algo, iters)
	})
}

// RepeatPipeline prices `rounds` wavefront rounds on a line of ranks:
// each round, rank i>0 receives msgBytes from rank i-1, every rank
// computes for `compute`, and rank i<n-1 sends msgBytes to rank i+1 —
// the LU hyperplane sweep (Figure 20). Round r of rank i depends only
// on round r of rank i-1 and rank i's earlier rounds, so a round-major,
// rank-ascending traversal is in dependency order. ok is false for
// negative arguments and wherever RepeatSendrecv refuses.
//
// Like RepeatOp, RepeatPipeline does not populate per-rank profiles or
// final clocks; callers use the returned makespan.
func (w *World) RepeatPipeline(msgBytes, rounds int, compute vclock.Time) (vclock.Time, bool) {
	if msgBytes < 0 || rounds < 0 || compute < 0 || w.replayRefusal(SeqStep{Kind: RingKind}) != "" {
		return 0, false
	}
	// The wavefront is the hottest replay (Figure 20's LU sweep), so it
	// prices its one message size once and keeps each clock in a local
	// across the recurrences; post[:len(t)] drops the bounds checks.
	s := newReplay(w)
	s.expand()
	t, post, p := s.t, s.post[:len(s.t)], s.cost(0, 1, msgBytes)
	for r := 0; r < rounds; r++ {
		for id := range t {
			c := t[id]
			if id > 0 {
				c = p.landed(c, post[id])
			}
			c += compute
			if id+1 < len(post) {
				post[id+1] = c
				c = p.sent(c)
			}
			t[id] = c
		}
	}
	s.msgs = int64(rounds) * int64(len(t)-1)
	s.bytes = s.msgs * int64(msgBytes)
	return s.done(func() string { return fmt.Sprintf("pipeline x%d", rounds) })
}
