package experiments

import (
	"strconv"
	"testing"
)

func TestTACComparison(t *testing.T) {
	s := quickSuite()
	tbl, err := s.TACComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
	// dataset, field, then per codec: four candidate ratios, pick, pick/best.
	const perCodec = 6
	seen3d := false
	for _, row := range tbl.Rows {
		if len(row) != 2+2*perCodec || len(row) != len(tbl.Header) {
			t.Fatalf("row width %d (header %d), want %d: %v", len(row), len(tbl.Header), 2+2*perCodec, row)
		}
		for c := 0; c < 2; c++ {
			cells := row[2+c*perCodec:][:perCodec]
			for _, i := range []int{0, 1, 2, 3, 5} {
				r, err := strconv.ParseFloat(cells[i], 64)
				if err != nil {
					t.Fatalf("non-numeric cell %q in %v", cells[i], row)
				}
				if r <= 0 || (i == 5 && r > 1) {
					t.Fatalf("degenerate value %q in %v", cells[i], row)
				}
			}
			if cells[4] == "auto" {
				t.Fatalf("pick column records the pseudo-layout, not a concrete one: %v", row)
			}
		}
		if row[0] == "sedov3d" {
			seen3d = true
			if row[6] != "tac" || row[12] != "tac" {
				t.Fatalf("3-D rows must resolve to tac under both codecs: %v", row)
			}
		}
	}
	if !seen3d {
		t.Fatal("no sedov3d rows")
	}
}
