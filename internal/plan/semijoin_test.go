package plan

import "testing"

func TestSemiJoin(t *testing.T) {
	left := [][]int64{{7, 1}, {8, 2}, {9, 3}}
	var c JoinCounters
	got := semiJoin(left, 1, map[int64]struct{}{2: {}, 3: {}}, &c)
	if len(got) != 2 || got[0][0] != 8 || got[1][0] != 9 {
		t.Fatalf("semiJoin = %v", got)
	}
	if c.TuplesIn != 3 || c.TuplesOut != 2 {
		t.Fatalf("counters = %+v", c)
	}
	c.Add(JoinCounters{TuplesIn: 10, TuplesOut: 20})
	if c.TuplesIn != 13 || c.TuplesOut != 22 {
		t.Fatalf("Add = %+v", c)
	}
}
