package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"syscall"
	"testing"

	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// This file is the differential proof of horizontal sharding (DESIGN.md
// §16): every randomized insert/delete/search schedule is executed
// against an unsharded facility, the sharded form of the same kind, and
// a brute-force model, asserting byte-identical OID sets at every shard
// count and every parallelism. 500 seeded schedules × 4 facility kinds
// run under -race in CI (the race job runs the whole package).

// shardDiffHarness holds one schedule's three executions plus the
// shared SetSource both facilities verify against.
type shardDiffHarness struct {
	src     MapSource
	flat    AccessMethod
	sharded *ShardedFacility
	model   map[uint64][]string
	freed   []uint64
	next    uint64
}

func newShardDiffHarness(t *testing.T, kind Kind, rng *rand.Rand) *shardDiffHarness {
	t.Helper()
	src := MapSource{}
	cfg := Config{Kind: kind, Scheme: signature.MustNew(32, 3), Source: src}
	if kind == KindFSSF {
		cfg.FrameScheme = signature.MustFrameScheme(4, 8, 3)
	}
	flatCfg := cfg
	flatCfg.Store = pagestore.NewMemStore()
	flat, err := Open(flatCfg)
	if err != nil {
		t.Fatalf("open flat %v: %v", kind, err)
	}
	shCfg := cfg
	shCfg.Store = pagestore.NewMemStore()
	shCfg.Shards = 2 + rng.Intn(7) // K in [2,8]
	// A third of the schedules put the LSM write path underneath every
	// shard, proving the two composite layers compose.
	var opts []OpenOption
	if rng.Intn(3) == 0 {
		opts = append(opts,
			WithLSMMemtableSize(2+rng.Intn(7)), WithLSMCompactAfter(2+rng.Intn(3)))
	}
	sh, err := Open(shCfg, opts...)
	if err != nil {
		t.Fatalf("open sharded %v K=%d: %v", kind, shCfg.Shards, err)
	}
	return &shardDiffHarness{
		src: src, flat: flat, sharded: sh.(*ShardedFacility),
		model: make(map[uint64][]string), next: 1,
	}
}

func (h *shardDiffHarness) liveOID(rng *rand.Rand) uint64 {
	if len(h.model) == 0 {
		return 0
	}
	oids := make([]uint64, 0, len(h.model))
	for oid := range h.model {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids[rng.Intn(len(oids))]
}

func (h *shardDiffHarness) doInsert(t *testing.T, rng *rand.Rand) {
	t.Helper()
	var oid uint64
	if len(h.freed) > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(len(h.freed))
		oid = h.freed[i]
		h.freed = append(h.freed[:i], h.freed[i+1:]...)
	} else {
		oid = h.next
		h.next++
	}
	elems := randSet(rng)
	h.src[oid] = elems
	if err := h.flat.Insert(oid, elems); err != nil {
		t.Fatalf("flat insert %d: %v", oid, err)
	}
	if err := h.sharded.Insert(oid, elems); err != nil {
		t.Fatalf("sharded insert %d: %v", oid, err)
	}
	h.model[oid] = dedup(elems)
}

func (h *shardDiffHarness) doDelete(t *testing.T, rng *rand.Rand) {
	t.Helper()
	oid := h.liveOID(rng)
	if oid == 0 {
		return
	}
	elems := h.src[oid]
	if err := h.flat.Delete(oid, elems); err != nil {
		t.Fatalf("flat delete %d: %v", oid, err)
	}
	if err := h.sharded.Delete(oid, elems); err != nil {
		t.Fatalf("sharded delete %d: %v", oid, err)
	}
	delete(h.model, oid)
	delete(h.src, oid)
	h.freed = append(h.freed, oid)
}

func (h *shardDiffHarness) modelSearch(t *testing.T, pred signature.Predicate, query []string) []uint64 {
	t.Helper()
	var out []uint64
	for oid, elems := range h.model {
		ok, err := signature.EvaluateSets(pred, elems, dedup(query))
		if err != nil {
			t.Fatalf("model search: %v", err)
		}
		if ok {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (h *shardDiffHarness) doSearch(t *testing.T, rng *rand.Rand) {
	t.Helper()
	pred := diffPreds[rng.Intn(len(diffPreds))]
	query := make([]string, rng.Intn(5))
	for i := range query {
		query[i] = diffElems[rng.Intn(len(diffElems))]
	}
	if pred == signature.Contains {
		query = []string{diffElems[rng.Intn(len(diffElems))]}
	}
	var opts []SearchOption
	switch rng.Intn(3) {
	case 1:
		opts = append(opts, WithSmartRetrieval())
	case 2:
		opts = append(opts, WithMaxProbeElements(1+rng.Intn(2)))
	}
	want := h.modelSearch(t, pred, query)
	flatRes, err := h.flat.Search(pred, query, opts...)
	if err != nil {
		t.Fatalf("flat search %v %v: %v", pred, query, err)
	}
	shRes, err := h.sharded.Search(pred, query, opts...)
	if err != nil {
		t.Fatalf("sharded search %v %v: %v", pred, query, err)
	}
	if !equalOIDs(flatRes.OIDs, want) {
		t.Fatalf("flat %v %v: got %v, model says %v", pred, query, flatRes.OIDs, want)
	}
	if !equalOIDs(shRes.OIDs, want) {
		t.Fatalf("sharded K=%d %v %v: got %v, model says %v",
			h.sharded.Shards(), pred, query, shRes.OIDs, want)
	}
	checkStats(t, "flat", flatRes)
	checkStats(t, "sharded", shRes)
}

// TestDifferentialSharded runs diffSchedulesPerKind seeded schedules
// against each facility kind: every schedule executes ~40 randomized
// operations on an unsharded facility and a sharded one (random K in
// [2,8], sometimes LSM-backed) in lockstep, and every search must agree
// with both the other facility and the brute-force model.
func TestDifferentialSharded(t *testing.T) {
	for _, kind := range []Kind{KindSSF, KindBSSF, KindFSSF, KindNIX} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < diffSchedulesPerKind; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(seed)*4 + int64(kind) + 7000))
					h := newShardDiffHarness(t, kind, rng)
					nops := 30 + rng.Intn(20)
					for op := 0; op < nops; op++ {
						switch r := rng.Intn(20); {
						case r < 12:
							h.doInsert(t, rng)
						case r < 15:
							h.doDelete(t, rng)
						default:
							h.doSearch(t, rng)
						}
					}
					// Final sweep: every predicate against a fixed query —
					// the settled state must answer identically too.
					for _, pred := range diffPreds {
						q := []string{"a", "b"}
						if pred == signature.Contains {
							q = []string{"a"}
						}
						want := h.modelSearch(t, pred, q)
						shRes, err := h.sharded.Search(pred, q)
						if err != nil {
							t.Fatalf("sharded search %v %v: %v", pred, q, err)
						}
						if !equalOIDs(shRes.OIDs, want) {
							t.Fatalf("sharded %v %v: got %v, model says %v", pred, q, shRes.OIDs, want)
						}
						checkStats(t, "sharded", shRes)
					}
					if got, want := h.sharded.Count(), len(h.model); got != want {
						t.Fatalf("sharded count %d, want %d", got, want)
					}
				})
			}
		})
	}
}

// TestShardedBatchInsert proves InsertAll partitions a bulk load across
// shards with the same results a per-object loop produces.
func TestShardedBatchInsert(t *testing.T) {
	src := MapSource{}
	entries := make([]Entry, 0, 200)
	for oid := uint64(1); oid <= 200; oid++ {
		set := []string{diffElems[oid%7], diffElems[oid%11]}
		src[oid] = set
		entries = append(entries, Entry{OID: oid, Elems: set})
	}
	am, err := Open(Config{
		Kind: KindBSSF, Scheme: signature.MustNew(32, 3), Source: src, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := InsertAll(am, entries); err != nil {
		t.Fatal(err)
	}
	if am.Count() != 200 {
		t.Fatalf("count = %d, want 200", am.Count())
	}
	res, err := am.Search(signature.Superset, []string{diffElems[1]})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for oid, elems := range src {
		ok, _ := signature.EvaluateSets(signature.Superset, elems, []string{diffElems[1]})
		if ok {
			want = append(want, oid)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !equalOIDs(res.OIDs, want) {
		t.Fatalf("got %v, want %v", res.OIDs, want)
	}
}

// TestShardedCancelMidScatter: a cancellation that fires while a
// sharded search is resolving false drops stops it with ctx.Err() and
// leaves the facility consistent for the next search.
func TestShardedCancelMidScatter(t *testing.T) {
	const n = 200
	base := newFixtures(t, n, 5, 30, 91)
	sets := base[0].sets
	src := &cancelSource{src: MapSource(sets)}
	am, err := Open(Config{
		Kind: KindBSSF, Scheme: signature.MustNew(120, 3), Source: src, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for oid := uint64(1); oid <= uint64(n); oid++ {
		if err := am.Insert(oid, sets[oid]); err != nil {
			t.Fatalf("insert %d: %v", oid, err)
		}
	}
	query := []string{"elem-00001", "elem-00002"}
	ctx, cancel := context.WithCancel(context.Background())
	src.cancel = cancel
	src.left.Store(3)
	_, err = am.SearchContext(ctx, signature.Overlap, query)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-search cancel: err = %v, want context.Canceled", err)
	}
	// Disarm the trigger and re-run: exact answer, clean state.
	src.left.Store(-1 << 20)
	res, err := am.SearchContext(context.Background(), signature.Overlap, query)
	if err != nil {
		t.Fatalf("after mid-search cancel: %v", err)
	}
	if want := bruteForce(sets, signature.Overlap, query); !sameOIDs(want, res.OIDs) {
		t.Errorf("after mid-search cancel: got %v want %v", res.OIDs, want)
	}
}

// TestShardedOneShardDegraded: a terminal write fault on one shard
// degrades that shard alone. The sharded facility reports the worst
// state, searches keep serving the committed state byte-identically,
// writes routed to healthy shards keep flowing, writes routed to the
// degraded shard fail fast with ErrDegraded, and one repair restores
// the whole set.
func TestShardedOneShardDegraded(t *testing.T) {
	const k = 4
	src := MapSource{}
	fs := pagestore.NewFaultStore(pagestore.NewMemStore())
	am, err := Open(Config{
		Kind: KindBSSF, Scheme: signature.MustNew(64, 3), Source: src, Shards: k, Store: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := am.(*ShardedFacility)
	for oid := uint64(1); oid <= 60; oid++ {
		set := []string{diffElems[oid%5], diffElems[oid%9]}
		src[oid] = set
		if err := am.Insert(oid, set); err != nil {
			t.Fatalf("insert %d: %v", oid, err)
		}
	}
	before, err := am.Search(signature.Superset, []string{diffElems[1]})
	if err != nil {
		t.Fatal(err)
	}

	// Degrade exactly one shard: fail writes, route an insert to a known
	// shard, heal the disk. Only that shard walked its health ladder.
	victimOID := uint64(1000)
	victim := shardOf(victimOID, k)
	fs.FailWritesWith(syscall.ENOSPC)
	if err := am.Insert(victimOID, []string{"a"}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("insert on full disk = %v, want ENOSPC in chain", err)
	}
	fs.Heal()

	if HealthOf(am) != Degraded {
		t.Fatalf("sharded health = %v, want degraded (worst shard wins)", HealthOf(am))
	}
	var degraded []int
	for i, h := range sh.ShardHealth() {
		if h != Healthy {
			degraded = append(degraded, i)
		}
	}
	if len(degraded) != 1 || degraded[0] != victim {
		t.Fatalf("degraded shards = %v, want exactly [%d]", degraded, victim)
	}

	// Reads still serve the committed state byte-identically.
	after, err := am.Search(signature.Superset, []string{diffElems[1]})
	if err != nil {
		t.Fatalf("search with one shard degraded: %v", err)
	}
	if !equalOIDs(before.OIDs, after.OIDs) {
		t.Fatalf("degraded-shard search OIDs = %v, want %v", after.OIDs, before.OIDs)
	}

	// Writes route around the degraded shard: an OID owned by the victim
	// fails fast, an OID owned by any other shard commits.
	var healthyOID, sickOID uint64
	for oid := uint64(2000); healthyOID == 0 || sickOID == 0; oid++ {
		if shardOf(oid, k) == victim {
			if sickOID == 0 {
				sickOID = oid
			}
		} else if healthyOID == 0 {
			healthyOID = oid
		}
	}
	if err := am.Insert(sickOID, []string{"b"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert routed to degraded shard = %v, want ErrDegraded", err)
	}
	src[healthyOID] = []string{"b", diffElems[1]}
	if err := am.Insert(healthyOID, src[healthyOID]); err != nil {
		t.Fatalf("insert routed to healthy shard: %v", err)
	}

	// One repair resets every shard's ladder.
	sh.MarkRepaired()
	if HealthOf(am) != Healthy {
		t.Fatalf("health after repair = %v, want healthy", HealthOf(am))
	}
	src[victimOID] = []string{"a"}
	if err := am.Insert(victimOID, src[victimOID]); err != nil {
		t.Fatalf("insert after repair: %v", err)
	}
}

// TestShardOfStable pins the partitioning function: the OID→shard map
// is a pure function of (oid, K), so a facility reopened over the same
// store routes every OID to the shard that holds it.
func TestShardOfStable(t *testing.T) {
	for _, k := range []int{2, 3, 8, 64} {
		counts := make([]int, k)
		for oid := uint64(0); oid < 10000; oid++ {
			s := shardOf(oid, k)
			if s < 0 || s >= k {
				t.Fatalf("shardOf(%d, %d) = %d out of range", oid, k, s)
			}
			if again := shardOf(oid, k); again != s {
				t.Fatalf("shardOf(%d, %d) unstable: %d then %d", oid, k, s, again)
			}
			counts[s]++
		}
		// The splitmix64 mix spreads OIDs evenly: no shard may hold more
		// than twice its fair share of a 10k sequential-OID load.
		fair := 10000 / k
		for i, c := range counts {
			if c > 2*fair {
				t.Errorf("K=%d shard %d holds %d of 10000 OIDs (fair share %d)", k, i, c, fair)
			}
		}
	}
}

// TestShardedReopen proves the per-shard prefixes compose with a shared
// persistent store: a sharded facility reopened cold over the same
// store answers identically.
func TestShardedReopen(t *testing.T) {
	src := MapSource{}
	store := pagestore.NewMemStore()
	cfg := Config{
		Kind: KindSSF, Scheme: signature.MustNew(32, 3), Source: src, Shards: 3, Store: store,
	}
	am, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64][]string)
	rng := rand.New(rand.NewSource(4242))
	for oid := uint64(1); oid <= 50; oid++ {
		elems := randSet(rng)
		src[oid] = elems
		if err := am.Insert(oid, elems); err != nil {
			t.Fatal(err)
		}
		model[oid] = dedup(elems)
		if oid%7 == 0 {
			if err := am.Delete(oid, elems); err != nil {
				t.Fatal(err)
			}
			delete(model, oid)
			delete(src, oid)
		}
	}
	reopened, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, want := reopened.Count(), len(model); got != want {
		t.Fatalf("reopened count %d, want %d", got, want)
	}
	for _, pred := range diffPreds {
		q := []string{"a", "c"}
		if pred == signature.Contains {
			q = []string{"a"}
		}
		var want []uint64
		for oid, elems := range model {
			ok, err := signature.EvaluateSets(pred, elems, q)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, oid)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		res, err := reopened.Search(pred, q)
		if err != nil {
			t.Fatalf("search after reopen: %v", err)
		}
		if !equalOIDs(res.OIDs, want) {
			t.Fatalf("%v %v after reopen: got %v, want %v", pred, q, res.OIDs, want)
		}
	}
}
