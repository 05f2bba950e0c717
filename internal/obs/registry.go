package obs

// Registry bundles the engine's histograms so one pointer can be
// threaded through the layers at open time. All fields are immutable
// after NewRegistry; the histograms themselves are concurrency-safe.
type Registry struct {
	// QueryLatency records end-to-end query latency in nanoseconds,
	// one sample per executed read (engine query path).
	QueryLatency *Histogram
	// WALFsyncLatency records the duration of each physical WAL fsync
	// in nanoseconds (group-commit leaders only — followers ride the
	// leader's fsync and record nothing).
	WALFsyncLatency *Histogram
	// GroupCommitBatch records how many commits each physical fsync
	// made durable (batch size in commits, not nanoseconds).
	GroupCommitBatch *Histogram
	// PoolMissLatency records the device read latency of each buffer
	// pool miss in nanoseconds.
	PoolMissLatency *Histogram
	// CheckpointDuration records full checkpoint durations in
	// nanoseconds.
	CheckpointDuration *Histogram
	// CommitLatency records per-commit latency in nanoseconds — the WAL
	// append, catalog write, snapshot publish and group fsync of one
	// commit. Comparing its tail with and without the background
	// checkpointer active is how "checkpointing does not stall the commit
	// path" is verified.
	CommitLatency *Histogram
	// TxnLatency records end-to-end transaction commit latency in
	// nanoseconds — from Commit entry through validation, any replays,
	// publish and the group fsync. One sample per successful Commit;
	// conflicted commits record nothing (they publish nothing).
	TxnLatency *Histogram
}

// NewRegistry returns a registry with all histograms allocated.
func NewRegistry() *Registry {
	return &Registry{
		QueryLatency:       NewHistogram(),
		WALFsyncLatency:    NewHistogram(),
		GroupCommitBatch:   NewHistogram(),
		PoolMissLatency:    NewHistogram(),
		CheckpointDuration: NewHistogram(),
		CommitLatency:      NewHistogram(),
		TxnLatency:         NewHistogram(),
	}
}
