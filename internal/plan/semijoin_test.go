package plan

import (
	"slices"
	"testing"
)

func TestSemiJoin(t *testing.T) {
	r := brel{width: 2, data: []int64{7, 1, 8, 2, 9, 3}}
	var keys hashTab
	keys.keySet([]int64{2, 3})
	var c JoinCounters
	r.keepKeys(1, &keys, &c)
	if !slices.Equal(r.data, []int64{8, 2, 9, 3}) {
		t.Fatalf("semiJoin kept %v", r.data)
	}
	if c.TuplesIn != 3 || c.TuplesOut != 2 {
		t.Fatalf("counters = %+v", c)
	}
	c.Add(JoinCounters{TuplesIn: 10, TuplesOut: 20})
	if c.TuplesIn != 13 || c.TuplesOut != 22 {
		t.Fatalf("Add = %+v", c)
	}
}
