package report

import "testing"

func TestCIGateSelfComparison(t *testing.T) {
	m, err := MeasureCIGate(1)
	if err != nil {
		t.Fatal(err)
	}
	if m.RecipeScore <= 0 || m.CompressScore <= 0 || m.DecompressScore <= 0 || m.ServerScore <= 0 {
		t.Fatalf("non-positive scores: %+v", m)
	}
	if m.KernelSpeedup <= 0 || m.KernelTunedNs <= 0 || m.KernelSerialNs <= 0 {
		t.Fatalf("kernel measurement missing: %+v", m)
	}
	if m.ServerAllocsPerOp <= 0 {
		t.Fatalf("server allocs/op missing: %+v", m)
	}
	if len(m.Ratios) != 12 {
		t.Fatalf("got %d ratio combos, want 12 (6 layouts x 2 codecs)", len(m.Ratios))
	}
	for _, combo := range []string{"tac/hilbert/sz", "tac/hilbert/zfp", "auto/hilbert/sz", "auto/hilbert/zfp"} {
		if _, ok := m.Ratios[combo]; !ok {
			t.Errorf("ratio combo %s missing", combo)
		}
	}
	for combo, r := range m.Ratios {
		if r <= 1 {
			t.Errorf("ratio %s = %v, expected compression > 1", combo, r)
		}
	}
	// A measurement compared against itself is within budget for every
	// baseline-relative entry, and the deterministic auto-vs-best check must
	// hold on the real ratio table. The kernel floor is an absolute
	// wall-clock gate: it belongs to zmesh-ci on a CI runner, not to go test
	// on whatever machine runs it, so the live timing is replaced here and
	// the floor logic is exercised on fixtures below.
	m.KernelSpeedup = KernelSpeedupFloor
	if v := CompareCIGate(m, m, 0.15, 0.01); len(v) != 0 {
		t.Fatalf("self-comparison produced violations: %v", v)
	}
}

// gateFixture returns a synthetic measurement that passes every absolute
// check, for exercising CompareCIGate's baseline-relative logic.
func gateFixture() *CIMeasurement {
	return &CIMeasurement{
		Version:           CIGateVersion,
		KernelTier:        "unsafe",
		RecipeScore:       1.0,
		CompressScore:     2.0,
		DecompressScore:   0.5,
		ServerScore:       1.5,
		KernelSpeedup:     1.5,
		KernelTunedNs:     1e6,
		KernelSerialNs:    15e5,
		ServerAllocsPerOp: 4000,
		Ratios:            map[string]float64{"zmesh/hilbert/sz": 10.0, "level/hilbert/zfp": 8.0},
	}
}

func TestCIGateDetectsRegressions(t *testing.T) {
	base := gateFixture()
	cur := gateFixture()
	cur.RecipeScore = 1.2                  // +20% — over the 15% budget
	cur.CompressScore = 2.1                // +5% — within budget
	cur.Ratios["zmesh/hilbert/sz"] = 9.5   // -5% — over the 1% budget
	cur.Ratios["level/hilbert/zfp"] = 7.99 // -0.1% — within budget
	v := CompareCIGate(base, cur, 0.15, 0.01)
	if len(v) != 2 {
		t.Fatalf("want 2 violations (recipe slowdown + sz ratio drop), got %d: %v", len(v), v)
	}

	// The kernel floor is absolute: a speedup below KernelSpeedupFloor fails
	// even when the baseline agrees with it, one just above it passes even
	// against a much faster baseline.
	slow := gateFixture()
	slow.KernelSpeedup = KernelSpeedupFloor - 0.1
	slowBase := gateFixture()
	slowBase.KernelSpeedup = slow.KernelSpeedup
	if v := CompareCIGate(slowBase, slow, 0.15, 0.01); len(v) != 1 {
		t.Fatalf("slow kernel: want 1 violation, got %v", v)
	}
	okKernel := gateFixture()
	okKernel.KernelSpeedup = KernelSpeedupFloor + 0.01
	if v := CompareCIGate(base, okKernel, 0.15, 0.01); len(v) != 0 {
		t.Fatalf("kernel just above the floor flagged: %v", v)
	}

	// auto is held to AutoVsBestFloor x the best static candidate of the
	// CURRENT measurement, per codec, whatever the baseline says.
	autoRatios := func(auto float64) *CIMeasurement {
		f := gateFixture()
		f.Ratios = map[string]float64{
			"auto/hilbert/sz": auto, "level/hilbert/sz": 9.9, "sfc-level/hilbert/sz": 10.0,
			"zmesh/hilbert/sz": 9.8, "tac/hilbert/sz": 7.5,
		}
		return f
	}
	if v := CompareCIGate(autoRatios(9.8), autoRatios(9.8), 0.15, 0.01); len(v) != 0 {
		t.Fatalf("auto at 0.98x best flagged: %v", v)
	}
	if v := CompareCIGate(autoRatios(7.5), autoRatios(7.5), 0.15, 0.01); len(v) != 1 {
		t.Fatalf("auto at 0.75x best: want 1 violation, got %v", v)
	}

	// Allocation regressions past the 25%+8 slack fail; within-slack jitter
	// does not.
	hungry := gateFixture()
	hungry.ServerAllocsPerOp = base.ServerAllocsPerOp*1.25 + 9
	if v := CompareCIGate(base, hungry, 0.15, 0.01); len(v) != 1 {
		t.Fatalf("alloc regression: want 1 violation, got %v", v)
	}
	jitter := gateFixture()
	jitter.ServerAllocsPerOp = base.ServerAllocsPerOp + 4
	if v := CompareCIGate(base, jitter, 0.15, 0.01); len(v) != 0 {
		t.Fatalf("alloc jitter within slack flagged: %v", v)
	}

	// Version skew must be its own hard failure.
	stale := gateFixture()
	stale.Version = CIGateVersion + 1
	if v := CompareCIGate(stale, cur, 0.15, 0.01); len(v) != 1 {
		t.Fatalf("version skew: want 1 violation, got %v", v)
	}

	// A combo missing from the current measurement fails rather than passing
	// silently.
	missing := gateFixture()
	curNoRatio := gateFixture()
	curNoRatio.Ratios = map[string]float64{"zmesh/hilbert/sz": 10.0}
	if v := CompareCIGate(missing, curNoRatio, 0.15, 0.01); len(v) != 1 {
		t.Fatalf("missing combo: want 1 violation, got %v", v)
	}
}

func TestMergeConservative(t *testing.T) {
	a := gateFixture()
	b := gateFixture()
	b.RecipeScore, b.RecipeNs = 1.4, 7e6                                 // slower mode — should win
	b.CompressScore = 1.8                                                // faster — should lose
	b.KernelSpeedup, b.KernelTunedNs, b.KernelSerialNs = 1.7, 9e5, 153e4 // better — should win
	b.ServerAllocsPerOp = 4100                                           // hungrier — should win
	if err := a.MergeConservative(b); err != nil {
		t.Fatal(err)
	}
	if a.RecipeScore != 1.4 || a.RecipeNs != 7e6 {
		t.Fatalf("slower recipe mode not kept: %+v", a)
	}
	if a.CompressScore != 2.0 {
		t.Fatalf("faster compress mode overwrote the slow one: %+v", a)
	}
	if a.KernelSpeedup != 1.7 || a.ServerAllocsPerOp != 4100 {
		t.Fatalf("kernel/allocs merge wrong: %+v", a)
	}

	// Diverging deterministic ratios mean the two runs measured different
	// code; refuse to merge.
	c := gateFixture()
	c.Ratios["zmesh/hilbert/sz"] = 9.0
	if err := gateFixture().MergeConservative(c); err == nil {
		t.Fatal("diverging ratios merged silently")
	}
	d := gateFixture()
	d.Version = CIGateVersion + 1
	if err := gateFixture().MergeConservative(d); err == nil {
		t.Fatal("version skew merged silently")
	}
}
