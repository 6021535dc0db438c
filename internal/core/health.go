package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
)

// This file is the graceful-degradation layer: a per-facility health
// state machine fed by classified storage errors. The paper's model
// stops at "the disk works"; a long-running sigfiled server needs the
// next chapter — when the disk stops working, signature files can keep
// *answering* (their pages are already on disk and reads may still be
// fine) even though they can no longer safely *change*. Health encodes
// exactly that asymmetry.

// HealthState is a facility's position in the degradation ladder.
// Transitions only move down the ladder (healthy → degraded → failed)
// until an explicit repair resets it, so observers never see a facility
// flap back to healthy on its own while the underlying fault persists.
type HealthState int32

const (
	// Healthy: reads and writes both served.
	Healthy HealthState = iota
	// Degraded: read-only. A terminal write fault (disk full, retries
	// exhausted, corruption) was observed; searches keep serving the
	// committed state byte-for-byte, writes fail fast with ErrDegraded.
	Degraded
	// Failed: the facility cannot even read reliably; every operation
	// fails fast with ErrFailed and the planner routes around it.
	Failed
)

// String returns the state name for stats, sigdb and logs.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("HealthState(%d)", int32(h))
}

// ErrDegraded is returned by Insert/Delete on a degraded (read-only)
// facility, before any page is touched: writing into a facility that
// already took a terminal storage fault risks surfacing the partial
// state the fault left behind (FSSF's untouched-frame hazard).
var ErrDegraded = errors.New("core: facility degraded: read-only")

// ErrFailed is returned by every operation on a failed facility.
var ErrFailed = errors.New("core: facility failed")

// HealthReporter is implemented by facilities that track health.
// Everything Open returns implements it; the planner treats anything
// else as always healthy.
type HealthReporter interface {
	Health() HealthState
}

// Repairer is implemented by facilities whose health can be reset after
// an operator repaired the underlying storage (or rebuilt the facility
// from the source). MarkRepaired is the only way health moves up the
// ladder.
type Repairer interface {
	MarkRepaired()
}

// HealthOf returns am's health, with non-reporting implementations
// considered healthy.
func HealthOf(am AccessMethod) HealthState {
	if hr, ok := am.(HealthReporter); ok {
		return hr.Health()
	}
	return Healthy
}

// obsHealth tracks each facility kind's current state (the HealthState
// numeric value: 0 healthy, 1 degraded, 2 failed).
func obsHealth(facility string) *obs.Gauge {
	return obs.Default().Gauge("sigfile_facility_health", "facility", facility)
}

// obsTransitions counts downward health transitions per facility kind.
func obsTransitions(facility string) *obs.Counter {
	return obs.Default().Counter("sigfile_facility_health_transitions_total", "facility", facility)
}

// healthTracker is the per-facility state machine. It is atomic, not
// mutex-guarded: the write gate runs before the facility lock is taken
// (writes must fail fast even while a search holds the lock shared) and
// the read gate runs on every search.
type healthTracker struct {
	state       atomic.Int32
	gauge       *obs.Gauge
	transitions *obs.Counter
	// shards are the ladders of a sharded facility's shards, nil
	// otherwise. The ladder is per shard — a write fault degrades only the
	// shard it hit, and only writes routed there are refused — while the
	// aggregate (worst wins) drives planner routing and the read gate: a
	// search touches every shard.
	shards []*healthTracker
}

// newHealthTracker returns a healthy tracker publishing under facility.
func newHealthTracker(facility string) *healthTracker {
	t := &healthTracker{gauge: obsHealth(facility), transitions: obsTransitions(facility)}
	t.gauge.Set(int64(Healthy))
	return t
}

// get returns the current state: the worst of the facility's own and
// its shards'.
func (t *healthTracker) get() HealthState {
	worst := t.own()
	for _, s := range t.shards {
		if h := s.get(); h > worst {
			worst = h
		}
	}
	return worst
}

func (t *healthTracker) own() HealthState { return HealthState(t.state.Load()) }

// gateWrite admits a write on a healthy facility and fails fast
// otherwise. Only the facility's own state counts: the shard a write
// routes to gates it again on its own ladder.
func (t *healthTracker) gateWrite() error {
	switch t.own() {
	case Degraded:
		return ErrDegraded
	case Failed:
		return ErrFailed
	}
	return nil
}

// gateRead admits a read unless the facility failed outright.
func (t *healthTracker) gateRead() error {
	if t.get() == Failed {
		return ErrFailed
	}
	return nil
}

// noteWrite feeds a write-path outcome into the machine: a terminal or
// corrupt fault flips the facility to read-only. Transient faults are
// the retry layer's business and unclassified errors (invalid
// arguments, unknown OIDs, context cancels) are not storage faults at
// all, so neither moves the state.
func (t *healthTracker) noteWrite(err error) {
	switch pagestore.Classify(err) {
	case pagestore.ClassTerminal, pagestore.ClassCorrupt:
		t.escalateTo(Degraded)
	}
}

// noteRead feeds a read-path outcome in. A terminal read fault on an
// already-degraded facility means even the committed state is
// unreachable: failed. On a healthy facility it degrades first — stop
// writes, keep trying reads (the next one may hit different pages).
// Corrupt reads degrade: the quarantine is serving errors for those
// pages and a write could make it worse, but other pages still answer.
func (t *healthTracker) noteRead(err error) {
	switch pagestore.Classify(err) {
	case pagestore.ClassTerminal:
		if t.own() >= Degraded {
			t.escalateTo(Failed)
		} else {
			t.escalateTo(Degraded)
		}
	case pagestore.ClassCorrupt:
		t.escalateTo(Degraded)
	}
}

// escalateTo moves the state down the ladder, never up — the CAS loop
// keeps concurrent escalations monotone.
func (t *healthTracker) escalateTo(s HealthState) {
	for {
		cur := t.state.Load()
		if cur >= int32(s) {
			return
		}
		if t.state.CompareAndSwap(cur, int32(s)) {
			t.gauge.Set(int64(s))
			t.transitions.Inc()
			return
		}
	}
}

// reset returns the facility (and every shard) to healthy after a
// repair.
func (t *healthTracker) reset() {
	t.state.Store(int32(Healthy))
	t.gauge.Set(int64(Healthy))
	for _, s := range t.shards {
		s.reset()
	}
}
