package shard

import (
	"testing"

	"df3/internal/sim"
)

// TestProfileDeterminism is the profiler's contract: a profiled run must
// be byte-identical to an unprofiled one — wall-clock reads are pure
// observation.
func TestProfileDeterminism(t *testing.T) {
	const n, until, lookahead = 7, 500.0, 5.0
	run := func(profile bool) ([]uint64, int) {
		k := NewKernel(3, lookahead)
		if profile {
			k.EnableProfile()
		}
		d := ringModel(t, k, n, until)
		return d, k.Stats().Windows
	}
	plain, plainWin := run(false)
	prof, profWin := run(true)
	if plainWin != profWin {
		t.Fatalf("profiled run executed %d windows, unprofiled %d", profWin, plainWin)
	}
	for i := range plain {
		if plain[i] != prof[i] {
			t.Fatalf("LP %d digest %x with profiler, %x without", i, prof[i], plain[i])
		}
	}
}

func TestProfileReport(t *testing.T) {
	const shards, lookahead = 2, 5.0
	k := NewKernel(shards, lookahead)
	k.EnableProfile()
	ringModel(t, k, 4, 200)

	r, ok := k.ProfileReport()
	if !ok {
		t.Fatal("ProfileReport not available after EnableProfile")
	}
	if r.Windows != k.Stats().Windows || r.Windows == 0 {
		t.Fatalf("report windows %d, kernel %d", r.Windows, k.Stats().Windows)
	}
	if r.LimitedWindows == 0 || r.LimitedWindows > uint64(r.Windows) {
		t.Fatalf("limited windows %d of %d", r.LimitedWindows, r.Windows)
	}
	if r.Wall <= 0 {
		t.Fatal("window wall time not measured")
	}
	if len(r.Shards) != shards {
		t.Fatalf("%d shard rows, want %d", len(r.Shards), shards)
	}
	var events uint64
	for _, sp := range r.Shards {
		events += sp.Events
		if sp.Busy < 0 || sp.Busy > r.Wall {
			t.Errorf("shard %d busy %v outside [0, wall %v]", sp.Shard, sp.Busy, r.Wall)
		}
		if sp.Busy+sp.Idle > r.Wall+r.Wall/100 {
			t.Errorf("shard %d busy+idle %v exceeds wall %v", sp.Shard, sp.Busy+sp.Idle, r.Wall)
		}
		if sp.Utilization < 0 || sp.Utilization > 1 {
			t.Errorf("shard %d utilization %v", sp.Shard, sp.Utilization)
		}
		if sp.LPs != 2 {
			t.Errorf("shard %d has %d LPs, want 2", sp.Shard, sp.LPs)
		}
	}
	if events != k.Stats().TotalEvents {
		t.Errorf("shard rows account %d events, stats say %d", events, k.Stats().TotalEvents)
	}

	// Limiter attribution: every limited window is attributed exactly once.
	var attributed uint64
	for _, ls := range r.Limiters {
		attributed += ls.Windows
		if ls.Name == "" || ls.LP < 0 || ls.LP >= 4 {
			t.Errorf("bad limiter row %+v", ls)
		}
	}
	if attributed != r.LimitedWindows {
		t.Errorf("limiters account %d windows, report says %d", attributed, r.LimitedWindows)
	}
	for i := 1; i < len(r.Limiters); i++ {
		if r.Limiters[i].Windows > r.Limiters[i-1].Windows {
			t.Errorf("limiters not sorted by descending windows: %+v", r.Limiters)
		}
	}

	// Pair attribution: the ring model sends at lookahead + Exp jitter, so
	// every pair's observed MinDelay must be at (or just above) lookahead.
	if len(r.Pairs) == 0 {
		t.Fatal("no boundary pairs recorded")
	}
	for _, p := range r.Pairs {
		if p.MinDelay < lookahead {
			t.Errorf("pair %d→%d MinDelay %v below lookahead %v", p.SrcShard, p.DstShard, p.MinDelay, lookahead)
		}
	}

	// Registry read-throughs agree with the report.
	for s := 0; s < shards; s++ {
		if got := k.BusySeconds(s); got != r.Shards[s].Busy.Seconds() {
			t.Errorf("BusySeconds(%d) = %v, report %v", s, got, r.Shards[s].Busy.Seconds())
		}
		if got := k.IdleSeconds(s); got != r.Shards[s].Idle.Seconds() {
			t.Errorf("IdleSeconds(%d) = %v, report %v", s, got, r.Shards[s].Idle.Seconds())
		}
	}
}

func TestProfileDisabledIsZero(t *testing.T) {
	k := NewKernel(2, 5)
	ringModel(t, k, 4, 50)
	if _, ok := k.ProfileReport(); ok {
		t.Fatal("ProfileReport available without EnableProfile")
	}
	if k.Profiled() {
		t.Fatal("Profiled() true without EnableProfile")
	}
	if k.BusySeconds(0) != 0 || k.IdleSeconds(1) != 0 {
		t.Fatal("busy/idle nonzero without EnableProfile")
	}
}

func TestEnableProfileAfterRunPanics(t *testing.T) {
	k := NewKernel(1, 5)
	ringModel(t, k, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableProfile after Run did not panic")
		}
	}()
	k.EnableProfile()
}

// TestProfileLimiterAttribution pins the ring model's limiter table to
// golden values recorded from an independent window loop, then checks a
// stepped run: a paced driver runs the kernel in
// short slices, most of which end with a proposal past the horizon that
// opens no window and must not be credited — on a sole-Part kernel every
// window has exactly one limiter.
func TestProfileLimiterAttribution(t *testing.T) {
	k := NewKernel(2, 5)
	k.EnableProfile()
	ringModel(t, k, 4, 200)
	r, _ := k.ProfileReport()
	if r.Windows != 36 || r.LimitedWindows != 36 {
		t.Fatalf("windows %d, limited %d; want 36, 36", r.Windows, r.LimitedWindows)
	}
	want := []struct {
		lp      int
		windows uint64
	}{{2, 13}, {3, 12}, {1, 6}, {0, 5}}
	if len(r.Limiters) != len(want) {
		t.Fatalf("limiters %+v, want %v", r.Limiters, want)
	}
	for i, w := range want {
		if got := r.Limiters[i]; got.LP != w.lp || got.Windows != w.windows {
			t.Errorf("limiter %d = LP %d × %d, want LP %d × %d", i, got.LP, got.Windows, w.lp, w.windows)
		}
	}

	s := buildPing(2, 5, 40)
	s.k.EnableProfile()
	for until := sim.Time(0.7); until < 40; until += 0.7 {
		s.k.Run(until)
	}
	s.k.Run(40)
	if got := s.fingerprint(); got != pingFingerprint5 {
		t.Fatalf("stepped fingerprint %s, want %s", got, pingFingerprint5)
	}
	if r, _ := s.k.ProfileReport(); r.Windows == 0 || r.LimitedWindows != uint64(r.Windows) {
		t.Fatalf("stepped run: %d limited windows of %d", r.LimitedWindows, r.Windows)
	}
}
