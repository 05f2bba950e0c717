package stats

import (
	"sync"
	"testing"
)

// Regression for the torn QueryStats snapshot: CountQuery bumps two
// counters; a concurrent Snapshot must never observe them out of step.
// Every writer counts a 3-branch query, so BranchesEvaluated == 3*Queries
// must hold in every snapshot exactly, not just at quiescence. Run under
// -race in CI (make race).
func TestQuerySnapshotConsistentUnderConcurrency(t *testing.T) {
	var c QueryCounters
	const writers, perW = 8, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.CountQuery(3)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		s := c.Snapshot()
		if s.BranchesEvaluated != 3*s.Queries {
			t.Fatalf("torn snapshot: queries=%d branches=%d (want 3x)",
				s.Queries, s.BranchesEvaluated)
		}
		select {
		case <-done:
			s := c.Snapshot()
			if s.Queries != writers*perW || s.BranchesEvaluated != 3*writers*perW {
				t.Fatalf("final counts wrong: %+v", s)
			}
			return
		default:
		}
	}
}
