package zmesh

// Golden compression-ratio table: layout × codec on one fixed 2-D sedov
// hierarchy, and two sod rows. Compression is deterministic, so the
// committed values compare exactly, in both directions and row for row — a
// ratio that moves at all is a format or pipeline change and is reviewed as
// one. Regenerate together with the rest of the fixtures:
//
//	go test -run TestGolden -update .
//
// Timing has no place here; every wall-clock number lives in bench/.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

const (
	ratiosFixture = "ratios.json"
	// ratioDims is the dimension of the table's dataset.
	ratioDims = 2
	// autoVsBestFloor is the minimum ratio of the auto layout's compression
	// ratio to the best static candidate's, per codec. It is checked on the
	// live table, not against the golden, so a rule that resolves to a losing
	// layout fails even after the golden has been regenerated around it.
	autoVsBestFloor = 0.97
)

var (
	// ratioStaticLayouts are the concrete layouts auto is held against — the
	// same candidate list as experiments.StaticLayouts, which this package
	// cannot import (internal/experiments imports the public API).
	ratioStaticLayouts = []core.Layout{core.LevelOrder, core.SFCWithinLevel, core.ZMesh, core.TAC3D}
	ratioCodecs        = []string{"sz", "zfp"}
)

func ratioKey(layout core.Layout, codec string) string {
	return fmt.Sprintf("%s/hilbert/%s", layout, codec)
}

// ratioCheckpoint runs one solver problem at the table's configuration:
// small enough to run in seconds, structured enough (shock front,
// multi-level refinement) that layout and codec changes move the ratio.
func ratioCheckpoint(t *testing.T, problem string) *Checkpoint {
	t.Helper()
	ck, err := sim.GenerateCheckpoint(problem, sim.CheckpointOptions{
		Resolution: 64,
		TScale:     1,
		BlockSize:  8,
		RootDims:   [3]int{2, 2, 1},
		MaxDepth:   3,
		Threshold:  0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// fieldsRatio returns the compression ratio of ck under layout × codec,
// aggregated over the dens and pres fields.
func fieldsRatio(t *testing.T, ck *Checkpoint, layout core.Layout, codec string) float64 {
	t.Helper()
	enc, err := NewEncoder(ck.Mesh, Options{Layout: layout, Curve: "hilbert", Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	var raw, comp int
	for _, name := range []string{"dens", "pres"} {
		f, ok := ck.Field(name)
		if !ok {
			t.Fatalf("field %q missing from the checkpoint", name)
		}
		c, err := enc.CompressField(f, RelBound(1e-4))
		if err != nil {
			t.Fatalf("%s: %v", ratioKey(layout, codec), err)
		}
		raw += c.NumValues * 8
		comp += len(c.Payload)
	}
	return float64(raw) / float64(comp)
}

// measureRatios compresses sedov under every layout × codec, and sod under
// level and zmesh × sz. sod is planar: its rows repeat bit for bit, their
// quantization codes with them, and what repeats at that distance is found
// by DEFLATE's thorough level only. The sod rows are what the entropy
// stage's second DEFLATE pass is for; they drop by a tenth without it.
func measureRatios(t *testing.T) map[string]float64 {
	t.Helper()
	ratios := make(map[string]float64)
	sedov := ratioCheckpoint(t, "sedov")
	for _, layout := range append([]core.Layout{core.AutoLayout}, ratioStaticLayouts...) {
		for _, codec := range ratioCodecs {
			ratios[ratioKey(layout, codec)] = fieldsRatio(t, sedov, layout, codec)
		}
	}
	sod := ratioCheckpoint(t, "sod")
	for _, layout := range []core.Layout{core.LevelOrder, core.ZMesh} {
		ratios["sod:"+ratioKey(layout, "sz")] = fieldsRatio(t, sod, layout, "sz")
	}
	return ratios
}

// diffRatios lists every way got departs from want: a row only one side
// has, or a value that differs at all.
func diffRatios(want, got map[string]float64) []string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		w, inWant := want[k]
		g, inGot := got[k]
		switch {
		case !inGot:
			diffs = append(diffs, fmt.Sprintf("ratio %s: row missing from the live table", k))
		case !inWant:
			diffs = append(diffs, fmt.Sprintf("ratio %s: row not in the golden", k))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("ratio %s: %v, golden pins %v", k, g, w))
		}
	}
	return diffs
}

// autoBelowBest lists the codecs whose auto row falls under
// autoVsBestFloor × the best static layout's row.
func autoBelowBest(ratios map[string]float64) []string {
	var out []string
	for _, codec := range ratioCodecs {
		best, bestLayout := 0.0, core.AutoLayout
		for _, layout := range ratioStaticLayouts {
			if r := ratios[ratioKey(layout, codec)]; r > best {
				best, bestLayout = r, layout
			}
		}
		if auto := ratios[ratioKey(core.AutoLayout, codec)]; auto < autoVsBestFloor*best {
			out = append(out, fmt.Sprintf("ratio %s %.3f (auto resolves to %s) is below %.2fx the best static layout (%s at %.3f)",
				ratioKey(core.AutoLayout, codec), auto, ResolveAuto(ratioDims, codec), autoVsBestFloor, bestLayout, best))
		}
	}
	return out
}

func TestGoldenRatios(t *testing.T) {
	got := measureRatios(t)
	for _, v := range autoBelowBest(got) {
		t.Error(v)
	}
	if *updateGolden {
		writeFixture(t, ratiosFixture, got)
		return
	}
	var want map[string]float64
	readFixture(t, ratiosFixture, &want)
	for _, d := range diffRatios(want, got) {
		t.Error(d)
	}
	if t.Failed() {
		t.Log("a ratio moved: the bitstream or the reorder pipeline changed. If that is intended,\n" +
			"regenerate with `go test -run TestGolden -update .` and say why in the PR.")
	}
}

// TestGoldenRatiosChecks exercises the two checks on fixtures: the exact
// comparison must see a move in either direction and a row on either side
// only; the auto floor must pass at 0.98x best and fail at 0.75x.
func TestGoldenRatiosChecks(t *testing.T) {
	golden := func() map[string]float64 {
		return map[string]float64{"zmesh/hilbert/sz": 10.0, "level/hilbert/zfp": 8.0}
	}
	for _, tc := range []struct {
		name string
		edit func(got map[string]float64)
		want int
	}{
		{"identical", func(map[string]float64) {}, 0},
		{"rise", func(got map[string]float64) { got["zmesh/hilbert/sz"] = 10.000001 }, 1},
		{"drop", func(got map[string]float64) { got["level/hilbert/zfp"] = 7.99 }, 1},
		{"missing row", func(got map[string]float64) { delete(got, "level/hilbert/zfp") }, 1},
		{"extra row", func(got map[string]float64) { got["tac/hilbert/sz"] = 7.5 }, 1},
	} {
		got := golden()
		tc.edit(got)
		if d := diffRatios(golden(), got); len(d) != tc.want {
			t.Errorf("%s: want %d difference(s), got %v", tc.name, tc.want, d)
		}
	}

	withAuto := func(auto float64) map[string]float64 {
		return map[string]float64{
			"auto/hilbert/sz": auto, "level/hilbert/sz": 9.9, "sfc-level/hilbert/sz": 10.0,
			"zmesh/hilbert/sz": 9.8, "tac/hilbert/sz": 7.5,
			"auto/hilbert/zfp": 6.0, "tac/hilbert/zfp": 6.0,
		}
	}
	if v := autoBelowBest(withAuto(9.8)); len(v) != 0 {
		t.Errorf("auto at 0.98x best flagged: %v", v)
	}
	if v := autoBelowBest(withAuto(7.5)); len(v) != 1 {
		t.Errorf("auto at 0.75x best: want 1 violation, got %v", v)
	}
}
