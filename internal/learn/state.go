package learn

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/embed"
	"repro/internal/util"
)

// LoopState is the spillable in-memory state of a Loop: everything an
// eviction would otherwise lose — the drift references, the post-promotion
// monitoring window (rollback target, shadow accuracy, telemetry
// watermark), and the cycle counters the deterministic seed schedule
// derives from. Registry contents and telemetry are already durable on
// their own; this file closes the gap the tenant manager used to reset on
// reload.
type LoopState struct {
	SavedAt    time.Time `json:"saved_at"`
	Cycles     int       `json:"cycles"`
	Promotions int       `json:"promotions"`
	Rejections int       `json:"rejections"`
	Rollbacks  int       `json:"rollbacks"`
	LastSeen   int64     `json:"last_seen"`

	Reference      *ChannelSummary          `json:"reference,omitempty"`
	EmbedReference *embed.WorkloadEmbedding `json:"embed_reference,omitempty"`
	Monitor        *MonitorStatus           `json:"monitor,omitempty"`
}

// ExportState snapshots the loop's spillable state. Safe while the loop
// runs; the snapshot is whatever the last completed cycle left behind.
func (l *Loop) ExportState() *LoopState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &LoopState{
		SavedAt:    time.Now().UTC(),
		Cycles:     l.cycles,
		Promotions: l.promotions,
		Rejections: l.rejections,
		Rollbacks:  l.rollbacks,
		LastSeen:   l.lastSeen,
	}
	if l.reference != nil {
		ref := *l.reference
		st.Reference = &ref
	}
	if l.embedRef != nil {
		ref := *l.embedRef
		st.EmbedReference = &ref
	}
	if l.monitor != nil {
		mon := *l.monitor
		st.Monitor = &mon
	}
	return st
}

// RestoreState reinstates a previously exported snapshot. Call before
// Start; a nil state is a no-op. A restored monitor whose promoted version
// no longer serves stands down harmlessly at the next live check.
func (l *Loop) RestoreState(st *LoopState) {
	if st == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cycles = st.Cycles
	l.promotions = st.Promotions
	l.rejections = st.Rejections
	l.rollbacks = st.Rollbacks
	l.lastSeen = st.LastSeen
	l.reference = st.Reference
	l.embedRef = st.EmbedReference
	l.monitor = st.Monitor
}

// SaveStateFile spills the loop's state to path atomically
// (util.WriteFileAtomic). An empty path is a no-op.
func (l *Loop) SaveStateFile(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(l.ExportState(), "", "  ")
	if err != nil {
		return err
	}
	return util.WriteFileAtomic(path, data)
}

// RestoreStateFile restores spilled state from path; a missing file is a
// clean start, a corrupt one an error (the caller decides whether to start
// clean anyway).
func (l *Loop) RestoreStateFile(path string) error {
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var st LoopState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	l.RestoreState(&st)
	return nil
}
