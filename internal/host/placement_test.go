package host

import (
	"math"
	"testing"
)

func TestPickLeastLoaded(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name        string
		scores      []float64
		start, last int
		want        int
	}{
		{"empty", nil, 0, -1, -1},
		{"lowest wins", []float64{5, 1, 3}, 0, -1, 1},
		{"lowest wins from any start", []float64{5, 1, 3}, 2, -1, 1},
		{"tie goes to the cursor", []float64{2, 2, 2}, 0, -1, 0},
		{"tie rotates with the cursor", []float64{2, 2, 2}, 1, -1, 1},
		{"tie wraps around", []float64{2, 2, 2}, 5, -1, 2},
		{"tie skips a heavier cursor", []float64{1, 3, 1}, 1, -1, 2},
		{"hold: last trails by under the margin", []float64{1, 1.25}, 0, 1, 1},
		{"release: last trails by the margin", []float64{1, 1 + PlacementMargin}, 0, 1, 0},
		{"release: real imbalance", []float64{1, 3}, 0, 1, 0},
		{"hold beats a tie", []float64{2, 2, 2}, 0, 2, 2},
		{"last out of range is ignored", []float64{4, 1}, 0, 7, 1},
		{"unreachable last never holds", []float64{1, inf}, 0, 1, 0},
		{"all unreachable", []float64{inf, inf}, 1, -1, 1},
	} {
		if got := PickLeastLoaded(tc.scores, tc.start, tc.last); got != tc.want {
			t.Errorf("%s: PickLeastLoaded(%v, %d, %d) = %d, want %d",
				tc.name, tc.scores, tc.start, tc.last, got, tc.want)
		}
	}
	scores := []float64{3, 1.2, 1, 4, 1}
	if n := testing.AllocsPerRun(200, func() { PickLeastLoaded(scores, 3, 1) }); n != 0 {
		t.Errorf("PickLeastLoaded allocates %.1f/op, want 0", n)
	}
}
