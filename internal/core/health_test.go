package core

import (
	"context"
	"errors"
	"reflect"
	"syscall"
	"testing"

	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// healthSource is shared seed data for the health tests.
var healthSource = MapSource{
	1: {"alpha", "common"},
	2: {"beta", "common"},
	3: {"gamma", "delta"},
	4: {"alpha", "beta", "common"},
}

// eachFacility runs fn once per facility kind — and once per composition
// of the LSM write path and sharding over them — each opened through Open
// over a fresh FaultStore and loaded with healthSource. The LSM forms
// flush early enough that the four objects reach sealed segments, so
// searches read pages.
func eachFacility(t *testing.T, fn func(t *testing.T, am AccessMethod, fs *pagestore.FaultStore)) {
	t.Helper()
	flat := signature.MustNew(32, 4)
	kinds := []struct {
		name string
		cfg  Config
	}{
		{"SSF", Config{Kind: KindSSF, Scheme: signature.MustNew(64, 8)}},
		{"BSSF", Config{Kind: KindBSSF, Scheme: flat}},
		{"FSSF", Config{Kind: KindFSSF, FrameScheme: signature.MustFrameScheme(2, 32, 4)}},
		{"NIX", Config{Kind: KindNIX}},
		{"LSM-BSSF", Config{Kind: KindBSSF, Scheme: flat, LSM: true, LSMMemtableOps: 3}},
		{"Sharded-SSF", Config{Kind: KindSSF, Scheme: flat, Shards: 2}},
		{"Sharded-LSM-NIX", Config{Kind: KindNIX, LSM: true, LSMMemtableOps: 2, Shards: 2}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			fs := pagestore.NewFaultStore(pagestore.NewMemStore())
			cfg := k.cfg
			cfg.Source = healthSource
			am, err := Open(cfg, WithStore(fs))
			if err != nil {
				t.Fatal(err)
			}
			for oid := uint64(1); oid <= 4; oid++ {
				if err := am.Insert(oid, healthSource[oid]); err != nil {
					t.Fatal(err)
				}
			}
			fn(t, am, fs)
		})
	}
}

// TestTerminalWriteFaultDegrades is the core degraded-mode contract: a
// disk-full write flips the facility to read-only, searches keep serving
// the committed state byte-for-byte, and subsequent writes fail fast
// with ErrDegraded before touching any page — single inserts, deletes
// and bulk loads alike.
func TestTerminalWriteFaultDegrades(t *testing.T) {
	eachFacility(t, func(t *testing.T, am AccessMethod, fs *pagestore.FaultStore) {
		before, err := am.Search(signature.Superset, []string{"common"}, nil)
		if err != nil {
			t.Fatalf("search before fault: %v", err)
		}
		if HealthOf(am) != Healthy {
			t.Fatalf("health = %v, want healthy", HealthOf(am))
		}

		fs.FailWritesWith(syscall.ENOSPC)
		err = am.Insert(9, []string{"iota", "common"})
		if err == nil {
			t.Fatal("insert on full disk succeeded")
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("insert error = %v, want ENOSPC in chain", err)
		}
		if HealthOf(am) != Degraded {
			t.Fatalf("health after terminal write fault = %v, want degraded", HealthOf(am))
		}

		// Fail-fast: the disk is healed, but the facility stays read-only
		// until an explicit repair — no page is touched on the way out.
		// (A sharded facility degrades per shard and keeps taking writes
		// routed elsewhere; TestShardedOneShardDegraded pins that.)
		fs.Heal()
		if _, sharded := am.(*ShardedFacility); !sharded {
			if err := am.Insert(10, []string{"kappa"}); !errors.Is(err, ErrDegraded) {
				t.Fatalf("insert while degraded = %v, want ErrDegraded", err)
			}
			if err := am.Delete(1, healthSource[1]); !errors.Is(err, ErrDegraded) {
				t.Fatalf("delete while degraded = %v, want ErrDegraded", err)
			}
		}

		// Searches serve the committed state byte-identically.
		after, err := am.Search(signature.Superset, []string{"common"}, nil)
		if err != nil {
			t.Fatalf("search while degraded: %v", err)
		}
		if !reflect.DeepEqual(before.OIDs, after.OIDs) {
			t.Fatalf("degraded search OIDs = %v, want %v", after.OIDs, before.OIDs)
		}

		// Repair resets the ladder and writes flow again.
		am.(Repairer).MarkRepaired()
		if HealthOf(am) != Healthy {
			t.Fatalf("health after repair = %v, want healthy", HealthOf(am))
		}
		if err := am.Insert(11, []string{"lambda", "common"}); err != nil {
			t.Fatalf("insert after repair: %v", err)
		}

		// Bulk loads pass the same gate. A disk-full landing inside a batch
		// degrades the facility, and the next batch fails fast with
		// ErrDegraded — not the storage error — although the disk is still
		// full. (Each batch spans every shard of a sharded facility, so
		// both reach the shard the first one degraded.)
		batch := func(from uint64) []Entry {
			var entries []Entry
			for oid := from; oid < from+8; oid++ {
				entries = append(entries, Entry{OID: oid, Elems: []string{"mu", "common"}})
			}
			return entries
		}
		fs.FailWritesWith(syscall.ENOSPC)
		if err := InsertAll(am, batch(20)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("batch insert on full disk = %v, want ENOSPC in chain", err)
		}
		if HealthOf(am) != Degraded {
			t.Fatalf("health after terminal fault inside a batch = %v, want degraded", HealthOf(am))
		}
		err = InsertAll(am, batch(40))
		if !errors.Is(err, ErrDegraded) || errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("batch insert while degraded = %v, want ErrDegraded and no storage error", err)
		}
	})
}

// TestReadFaultEscalation walks the ladder down: a terminal read fault
// degrades a healthy facility, a second one on the degraded facility
// fails it, and from then on even searches fail fast with ErrFailed.
func TestReadFaultEscalation(t *testing.T) {
	eachFacility(t, func(t *testing.T, am AccessMethod, fs *pagestore.FaultStore) {
		fs.FailReadsWith(syscall.EBADF)
		if _, err := am.Search(signature.Superset, []string{"common"}, nil); err == nil {
			t.Fatal("search with failing reads succeeded")
		}
		if HealthOf(am) != Degraded {
			t.Fatalf("health after read fault = %v, want degraded", HealthOf(am))
		}
		if _, err := am.Search(signature.Superset, []string{"common"}, nil); err == nil {
			t.Fatal("second search with failing reads succeeded")
		}
		if HealthOf(am) != Failed {
			t.Fatalf("health after second read fault = %v, want failed", HealthOf(am))
		}
		fs.Heal()
		if _, err := am.Search(signature.Superset, []string{"common"}, nil); !errors.Is(err, ErrFailed) {
			t.Fatalf("search while failed = %v, want ErrFailed", err)
		}
		if err := am.Insert(9, []string{"iota"}); !errors.Is(err, ErrFailed) {
			t.Fatalf("insert while failed = %v, want ErrFailed", err)
		}
		am.(Repairer).MarkRepaired()
		if _, err := am.Search(signature.Superset, []string{"common"}, nil); err != nil {
			t.Fatalf("search after repair: %v", err)
		}
	})
}

// TestUnclassifiedErrorsDoNotDegrade: caller mistakes (duplicate OID,
// unknown OID, invalid predicate) and unclassified injected faults are
// not storage faults and must leave health untouched.
func TestUnclassifiedErrorsDoNotDegrade(t *testing.T) {
	eachFacility(t, func(t *testing.T, am AccessMethod, fs *pagestore.FaultStore) {
		if err := am.Delete(99, []string{"zeta"}); err == nil {
			t.Fatal("delete of unknown OID succeeded")
		}
		// A bare counter-armed fault carries no errno classification.
		// Every armed counter fires once; keep inserting until all have
		// tripped, asserting health never moves.
		for _, f := range fs.Files() {
			f.FailWriteAfter(0)
		}
		var insErr error
		for i := 0; i <= len(fs.Files()); i++ {
			insErr = am.Insert(9+uint64(i), []string{"iota", "common"})
			if HealthOf(am) != Healthy {
				t.Fatalf("health = %v, want healthy after unclassified errors", HealthOf(am))
			}
			if insErr == nil {
				break
			}
		}
		if insErr != nil {
			t.Fatalf("insert after unclassified faults: %v", insErr)
		}
	})
}

// TestDescribeReportsHealth: the catalog snapshot carries the state the
// planner keys off.
func TestDescribeReportsHealth(t *testing.T) {
	eachFacility(t, func(t *testing.T, am AccessMethod, fs *pagestore.FaultStore) {
		d, ok := am.(Describer)
		if !ok {
			t.Fatal("facility does not implement Describer")
		}
		if got := d.Describe().Health; got != Healthy {
			t.Fatalf("Describe().Health = %v, want healthy", got)
		}
		fs.FailWritesWith(syscall.ENOSPC)
		_ = am.Insert(9, []string{"iota"})
		if got := d.Describe().Health; got != Degraded {
			t.Fatalf("Describe().Health = %v, want degraded", got)
		}
	})
}

// TestHealthOfNonReporter: an AccessMethod that does not track health
// reads as healthy.
func TestHealthOfNonReporter(t *testing.T) {
	if HealthOf(stubAM{}) != Healthy {
		t.Fatal("non-reporting AccessMethod should read healthy")
	}
}

// stubAM is an AccessMethod with no health tracking.
type stubAM struct{}

func (stubAM) Name() string                  { return "stub" }
func (stubAM) Insert(uint64, []string) error { return nil }
func (stubAM) Delete(uint64, []string) error { return nil }
func (stubAM) Count() int                    { return 0 }
func (stubAM) StoragePages() int             { return 0 }
func (stubAM) Search(pred signature.Predicate, q []string, opts ...SearchOption) (*Result, error) {
	return &Result{}, nil
}
func (stubAM) SearchContext(ctx context.Context, pred signature.Predicate, q []string, opts ...SearchOption) (*Result, error) {
	return &Result{}, nil
}
