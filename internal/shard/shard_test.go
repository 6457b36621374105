package shard

import (
	"encoding/binary"
	"fmt"
	"testing"

	"df3/internal/rng"
	"df3/internal/sim"
)

// ringModel builds K interacting LPs on a kernel: each LP runs a Poisson
// generator off its own ForkNamed substream and, on every arrival, sends a
// message one step around the ring with a delay of lookahead plus a jittered
// slack. Receivers fold (time, payload) into a per-LP digest and schedule a
// local follow-up event, so the digest is sensitive to event order, message
// order and RNG draws alike.
func ringModel(t *testing.T, k *Kernel, n int, until sim.Time) []uint64 {
	t.Helper()
	const lookahead = 5
	r := &ring{digests: make([]uint64, n)}
	lps := make([]*LP, n)
	for i := 0; i < n; i++ {
		lps[i] = k.AddLP(fmt.Sprintf("lp-%d", i), sim.New(), until)
	}
	k.SetDecoder(r.decode)
	for i := 0; i < n; i++ {
		i := i
		stream := rng.New(42).ForkNamed(fmt.Sprintf("gen-%d", i))
		e := lps[i].Engine
		var arrival func()
		arrival = func() {
			now := e.Now()
			r.fold(i, uint64(now*1e6))
			dst := lps[(i+1)%n]
			delay := lookahead + stream.Exp(0.5)
			payload := binary.LittleEndian.AppendUint64(nil, stream.Uint64())
			k.SendMsg(lps[i], dst, delay, 128, ringKind, payload)
			next := stream.Exp(0.2)
			if now+next <= until {
				e.AtTransient(now+next, arrival)
			}
		}
		e.At(stream.Exp(0.2), arrival)
	}
	k.Run(until)
	return r.digests
}

// ringKind tags ringModel's messages.
const ringKind uint32 = 3

// ring holds ringModel's per-LP digests.
type ring struct{ digests []uint64 }

func (r *ring) fold(i int, v uint64) {
	h := r.digests[i]
	h ^= v
	h *= 1099511628211
	r.digests[i] = h
}

// decode is the ring's Decoder: the receiver folds the payload and its
// clock, then schedules a local follow-up.
func (r *ring) decode(dst *LP, kind uint32, payload []byte) (func(), error) {
	switch kind {
	case ringKind:
		if len(payload) != 8 {
			return nil, fmt.Errorf("ring: %d-byte payload, want 8", len(payload))
		}
		v := binary.LittleEndian.Uint64(payload)
		return func() {
			j := dst.ID
			r.fold(j, v)
			r.fold(j, uint64(dst.Engine.Now()*1e6))
			dst.Engine.AfterTransient(0.25, func() { r.fold(j, 7) })
		}, nil
	default:
		return nil, fmt.Errorf("ring: unknown kind %d", kind)
	}
}

// Golden values of the ring model on 7 LPs to t=500 with lookahead 5,
// recorded from an independent window loop, so the kernel is checked
// against fixed numbers rather than against itself.
const (
	ringWindows     = 96
	ringTotalEvents = 2028
	ringSent        = 683
	ringDigest0     = 0x99c40b56b8b060f
)

// TestDeterminismAcrossShardCounts is the kernel's contract: the same model
// partitioned onto 1, 2, 3 and 5 shards produces identical digests, event
// counts and clocks.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	const n, until, lookahead = 7, 500.0, 5.0
	type outcome struct {
		digests []uint64
		fired   []uint64
		stats   Stats
	}
	run := func(shards int) outcome {
		k := NewKernel(shards, lookahead)
		d := ringModel(t, k, n, until)
		var fired []uint64
		for _, lp := range k.LPs() {
			fired = append(fired, lp.Engine.Fired())
			if lp.Engine.Now() != until {
				t.Fatalf("shards=%d: LP %s clock %v, want %v", shards, lp.Name, lp.Engine.Now(), until)
			}
		}
		return outcome{d, fired, k.Stats()}
	}
	want := run(1)
	if st := want.stats; st.Windows != ringWindows || st.TotalEvents != ringTotalEvents ||
		st.Sent != ringSent || want.digests[0] != ringDigest0 {
		t.Fatalf("serial run: stats %+v, LP 0 digest %x; want %d windows, %d events, %d sent, digest %x",
			st, want.digests[0], ringWindows, ringTotalEvents, ringSent, uint64(ringDigest0))
	}
	for _, shards := range []int{2, 3, 5} {
		got := run(shards)
		for i := range want.digests {
			if got.digests[i] != want.digests[i] {
				t.Errorf("shards=%d: LP %d digest %x, want %x", shards, i, got.digests[i], want.digests[i])
			}
			if got.fired[i] != want.fired[i] {
				t.Errorf("shards=%d: LP %d fired %d, want %d", shards, i, got.fired[i], want.fired[i])
			}
		}
		if got.stats.Windows != want.stats.Windows {
			t.Errorf("shards=%d: %d windows, want %d (barriers must be partition-independent)",
				shards, got.stats.Windows, want.stats.Windows)
		}
	}
}

// TestStatsAndBoundary checks message accounting: every send is counted,
// cross-shard traffic only counts pairs on different shards, and the
// critical path is bounded by the total.
func TestStatsAndBoundary(t *testing.T) {
	k := NewKernel(2, 5)
	ringModel(t, k, 4, 200)
	st := k.Stats()
	if st.Sent == 0 {
		t.Fatal("no messages sent")
	}
	if st.CrossShard == 0 || st.CrossShard > st.Sent {
		t.Fatalf("cross-shard %d of %d sent", st.CrossShard, st.Sent)
	}
	if st.CriticalEvents == 0 || st.CriticalEvents > st.TotalEvents {
		t.Fatalf("critical %d of %d total", st.CriticalEvents, st.TotalEvents)
	}
	if s := st.Speedup(); s < 1 || s > 2 {
		t.Fatalf("speedup %v out of [1,2] on 2 shards", s)
	}
	var msgs int64
	var bytes float64
	for _, p := range k.Boundary() {
		msgs += p.Messages
		bytes += p.Bytes
	}
	if msgs != st.Sent {
		t.Fatalf("boundary accounts %d messages, stats say %d", msgs, st.Sent)
	}
	if want := float64(st.Sent) * 128; bytes != want {
		t.Fatalf("boundary bytes %v, want %v", bytes, want)
	}
}

// TestIndependentLPs runs channel-free arms under Infinite lookahead: one
// window, per-LP horizons respected exactly.
func TestIndependentLPs(t *testing.T) {
	k := NewKernel(3, Infinite)
	horizons := []sim.Time{10, 25, 40}
	counts := make([]int, len(horizons))
	for i, h := range horizons {
		i := i
		lp := k.AddLP(fmt.Sprintf("arm-%d", i), sim.New(), h)
		var tick func()
		tick = func() {
			counts[i]++
			lp.Engine.AfterTransient(1, tick)
		}
		lp.Engine.At(0.5, tick)
	}
	k.Run(40)
	for i, h := range horizons {
		lp := k.LPs()[i]
		if lp.Engine.Now() != h {
			t.Errorf("arm %d clock %v, want %v", i, lp.Engine.Now(), h)
		}
		if want := int(h); counts[i] != want {
			t.Errorf("arm %d ticked %d, want %d", i, counts[i], want)
		}
	}
	// Golden values: one window, every tick counted, the critical path
	// the longest arm.
	if st := k.Stats(); st.Windows != 1 || st.TotalEvents != 75 || st.CriticalEvents != 40 {
		t.Errorf("independent LPs: stats %+v, want 1 window, 75 events, 40 critical", st)
	}
}

// TestLookaheadViolationPanics: a sub-lookahead delay is a model bug the
// kernel must refuse loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	k := NewKernel(2, 5)
	a := k.AddLP("a", sim.New(), 10)
	b := k.AddLP("b", sim.New(), 10)
	a.Engine.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("SendMsg below lookahead did not panic")
			}
		}()
		k.SendMsg(a, b, 1, 0, ringKind, nil)
	})
	k.Run(10)
}

// TestPartitionContiguous covers balance, contiguity and weighted cuts.
func TestPartitionContiguous(t *testing.T) {
	cases := []struct {
		n, shards int
		weights   []float64
		want      []int
	}{
		{4, 2, nil, []int{0, 0, 1, 1}},
		{5, 2, nil, []int{0, 0, 0, 1, 1}},
		{3, 3, nil, []int{0, 1, 2}},
		{6, 4, nil, []int{0, 0, 1, 2, 2, 3}},
		// One heavy LP pulls the first cut early.
		{4, 2, []float64{10, 1, 1, 1}, []int{0, 1, 1, 1}},
	}
	for _, c := range cases {
		got := PartitionContiguous(c.n, c.shards, c.weights)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PartitionContiguous(%d,%d,%v) = %v, want %v", c.n, c.shards, c.weights, got, c.want)
				break
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Errorf("partition not contiguous: %v", got)
			}
		}
	}
}

// TestForkNamedStability pins the substream contract: same label, same
// stream; different labels diverge; order of forking elsewhere matters only
// through the parent state (documented Fork semantics).
func TestForkNamedStability(t *testing.T) {
	a := rng.New(7).ForkNamed("shard-0").Uint64()
	b := rng.New(7).ForkNamed("shard-0").Uint64()
	c := rng.New(7).ForkNamed("shard-1").Uint64()
	if a != b {
		t.Fatalf("same label diverged: %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("different labels collided: %x", a)
	}
}
