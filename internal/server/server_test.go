package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigfile"
	api "sigfile/api/v1"
	"sigfile/client"
	"sigfile/internal/pagestore"
)

// startServer opens a server over a fresh temp dir with both listeners
// bound to ephemeral ports, returning it plus the two addresses.
// Cleanup shuts it down unless the test already did.
func startServer(t *testing.T, mod func(*Config)) (srv *Server, httpURL, binAddr string) {
	t.Helper()
	cfg := Config{
		DataDir:         t.TempDir(),
		DefaultDeadline: 30 * time.Second,
		CheckpointEvery: 200 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := srv.ListenBinary("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // idempotent; no-op if the test shut down already
	})
	return srv, "http://" + ha, ba
}

func elem(i int) string { return fmt.Sprintf("e%03d", i) }

func randSet(rng *rand.Rand, card int) []string {
	seen := map[int]bool{}
	out := make([]string, 0, card)
	for len(out) < card {
		v := rng.Intn(60)
		if !seen[v] {
			seen[v] = true
			out = append(out, elem(v))
		}
	}
	return out
}

// hasSuperset reports whether target ⊇ query.
func hasSuperset(target, query []string) bool {
	set := map[string]bool{}
	for _, e := range target {
		set[e] = true
	}
	for _, q := range query {
		if !set[q] {
			return false
		}
	}
	return true
}

// TestEndToEndTwoTenantsBothProtocols is the main e2e test: two tenants
// with different configurations, driven concurrently over HTTP and the
// binary protocol with inserts, searches, SearchMany and EXPLAIN, with
// every search answer checked against an exact in-test model.
func TestEndToEndTwoTenantsBothProtocols(t *testing.T) {
	_, httpURL, binAddr := startServer(t, nil)

	hc := client.New(httpURL)
	defer hc.Close()
	bc := client.Dial(binAddr)
	defer bc.Close()

	ctx := context.Background()
	if _, err := hc.CreateTenant(ctx, "alpha", api.TenantConfig{Kinds: []string{"bssf", "nix"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.CreateTenant(ctx, "beta", api.TenantConfig{Kinds: []string{"ssf"}, LSM: true, F: 128, M: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.CreateTenant(ctx, "alpha", api.TenantConfig{}); api.CodeOf(err) != api.CodeAlreadyExists {
		t.Fatalf("duplicate create: err = %v, want ALREADY_EXISTS", err)
	}
	if _, err := hc.CreateTenant(ctx, "Bad Name!", api.TenantConfig{}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("bad name: err = %v, want BAD_REQUEST", err)
	}

	// Tenant isolation at the wire level: unknown tenant is NOT_FOUND
	// and maps to the sentinel-free 404 class.
	if _, err := hc.Search(ctx, "nope", api.PredOverlap, []string{"x"}, nil); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("unknown tenant: err = %v, want NOT_FOUND", err)
	}

	// Concurrent writers and readers on both tenants over both protocols.
	type acked struct {
		tenant string
		oid    uint64
		elems  []string
	}
	var (
		mu    sync.Mutex
		model []acked
	)
	tenants := []string{"alpha", "beta"}
	clients := []*client.Client{hc, bc}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c := clients[w%len(clients)]
			tn := tenants[w%len(tenants)]
			for i := 0; i < 30; i++ {
				elems := randSet(rng, 6)
				oid, err := c.Insert(ctx, tn, elems)
				if err != nil {
					errCh <- fmt.Errorf("worker %d insert: %w", w, err)
					return
				}
				mu.Lock()
				model = append(model, acked{tn, oid, elems})
				mu.Unlock()
				if i%5 == 0 {
					q := elems[:2]
					resp, err := c.Search(ctx, tn, api.PredSuperset, q, nil)
					if err != nil {
						errCh <- fmt.Errorf("worker %d search: %w", w, err)
						return
					}
					found := false
					for _, o := range resp.OIDs {
						if o == oid {
							found = true
							break
						}
					}
					if !found {
						errCh <- fmt.Errorf("worker %d: just-inserted oid %d not in superset result", w, oid)
						return
					}
				}
				if i%7 == 0 {
					if _, err := c.Explain(ctx, tn, api.PredSuperset, elems[:2]); err != nil {
						errCh <- fmt.Errorf("worker %d explain: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Full-model check on both protocols: every acknowledged write is
	// found by an equals search, and the answer matches the exact model.
	for _, c := range clients {
		for _, a := range model {
			resp, err := c.Search(ctx, a.tenant, api.PredEquals, a.elems, nil)
			if err != nil {
				t.Fatalf("verify search: %v", err)
			}
			found := false
			for _, o := range resp.OIDs {
				if o == a.oid {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("acked oid %d (tenant %s) missing from equals search", a.oid, a.tenant)
			}
		}
	}

	// Cross-predicate spot check against the model on one tenant.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		q := randSet(rng, 2)
		resp, err := bc.Search(ctx, "alpha", api.PredSuperset, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]bool{}
		for _, a := range model {
			if a.tenant == "alpha" && hasSuperset(a.elems, q) {
				want[a.oid] = true
			}
		}
		if len(want) != len(resp.OIDs) {
			t.Fatalf("superset(%v): got %d oids, want %d", q, len(resp.OIDs), len(want))
		}
		for _, o := range resp.OIDs {
			if !want[o] {
				t.Fatalf("superset(%v): unexpected oid %d", q, o)
			}
		}
	}

	// SearchMany: batch of three, answers in order, over both protocols.
	items := []api.SearchItem{
		{Pred: api.PredOverlap, Query: []string{elem(1), elem(2)}},
		{Pred: api.PredSuperset, Query: []string{elem(3)}},
		{Pred: api.PredEquals, Query: model[0].elems},
	}
	for _, c := range clients {
		many, err := c.SearchMany(ctx, model[0].tenant, items, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(many.Results) != 3 {
			t.Fatalf("search_many returned %d results", len(many.Results))
		}
		found := false
		for _, o := range many.Results[2].OIDs {
			if o == model[0].oid {
				found = true
			}
		}
		if !found {
			t.Fatalf("search_many equals item missed oid %d", model[0].oid)
		}
	}

	// EXPLAIN over both protocols mentions the facility candidates.
	for _, c := range clients {
		ex, err := c.Explain(ctx, "alpha", api.PredSuperset, []string{elem(1), elem(2)})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex.Text, "BSSF") {
			t.Fatalf("explain output does not mention BSSF:\n%s", ex.Text)
		}
	}

	// Health reflects both tenants with their facilities.
	h, err := bc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Tenants) != 2 {
		t.Fatalf("health = %+v", h)
	}
	for _, th := range h.Tenants {
		if len(th.Facilities) == 0 || th.Objects == 0 {
			t.Fatalf("tenant health %+v missing facilities or objects", th)
		}
	}

	// Wire errors keep errors.Is across the boundary (satellite 2's
	// client-side half): an invalid predicate surfaces as the sentinel.
	_, err = hc.Search(ctx, "alpha", "frobnicate", []string{"x"}, nil)
	if !errors.Is(err, sigfile.ErrInvalidPredicate) {
		t.Fatalf("bad predicate error = %v, want errors.Is ErrInvalidPredicate", err)
	}
}

// slowStore wraps a Store so page reads stall while armed; it is the
// test's stand-in for a large instance whose searches take real time.
type slowStore struct {
	pagestore.Store
	delay time.Duration
	armed atomic.Bool
	reads atomic.Int64
}

func (s *slowStore) Open(name string) (pagestore.File, error) {
	f, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, s: s}, nil
}

type slowFile struct {
	pagestore.File
	s *slowStore
}

func (f *slowFile) ReadPage(id pagestore.PageID, buf []byte) error {
	if f.s.armed.Load() {
		f.s.reads.Add(1)
		time.Sleep(f.s.delay)
	}
	return f.File.ReadPage(id, buf)
}

// TestDeadlineCancelsSearch maps a short request deadline onto the
// search's context: against a store whose every page read stalls, the
// request returns DEADLINE_EXCEEDED in about the deadline, not after
// the full scan.
func TestDeadlineCancelsSearch(t *testing.T) {
	slow := &slowStore{delay: 50 * time.Millisecond}
	_, httpURL, _ := startServer(t, func(c *Config) {
		c.WrapStore = func(tenant string, s pagestore.Store) pagestore.Store {
			slow.Store = s
			return slow
		}
	})
	hc := client.New(httpURL)
	defer hc.Close()

	ctx := context.Background()
	if _, err := hc.CreateTenant(ctx, "slow", api.TenantConfig{Kinds: []string{"ssf"}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		if _, err := hc.Insert(ctx, "slow", randSet(rng, 6)); err != nil {
			t.Fatal(err)
		}
	}

	slow.armed.Store(true)
	defer slow.armed.Store(false)
	dctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := hc.Search(dctx, "slow", api.PredOverlap, []string{elem(1)}, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("search on stalled store returned without error before the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) && api.CodeOf(err) != api.CodeDeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire — cancellation not plumbed through", elapsed)
	}
}

// TestDisconnectCancelsSearch proves per-request cancellation on client
// disconnect: a binary-protocol client starts a search that would take
// many seconds against a stalled store, then drops the connection. The
// server must cancel the in-flight search — observed two ways: the
// canceled-requests counter moves, and shutdown completes immediately
// instead of waiting out the scan.
func TestDisconnectCancelsSearch(t *testing.T) {
	slow := &slowStore{delay: 100 * time.Millisecond}
	srv, httpURL, binAddr := startServer(t, func(c *Config) {
		c.WrapStore = func(tenant string, s pagestore.Store) pagestore.Store {
			slow.Store = s
			return slow
		}
	})
	hc := client.New(httpURL)
	defer hc.Close()

	ctx := context.Background()
	if _, err := hc.CreateTenant(ctx, "slow", api.TenantConfig{Kinds: []string{"ssf"}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		if _, err := hc.Insert(ctx, "slow", randSet(rng, 6)); err != nil {
			t.Fatal(err)
		}
	}

	canceledBefore := srvCanceled.Value()
	slow.armed.Store(true)
	defer slow.armed.Store(false)

	// Dedicated binary client; its Close drops the connection while the
	// search is mid-scan on the server.
	bc := client.Dial(binAddr)
	done := make(chan error, 1)
	go func() {
		_, err := bc.Search(ctx, "slow", api.PredOverlap, []string{elem(1)}, nil)
		done <- err
	}()
	// Let the search reach the stalled store, then disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for slow.reads.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if slow.reads.Load() == 0 {
		t.Fatal("search never reached the store")
	}
	bc.Close()
	if err := <-done; err == nil {
		t.Fatal("client search returned success after disconnect")
	}

	// The server-side search must observe the cancellation promptly.
	deadline = time.Now().Add(10 * time.Second)
	for srvCanceled.Value() == canceledBefore && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if srvCanceled.Value() == canceledBefore {
		t.Fatal("canceled-request counter never moved: in-flight search not canceled on disconnect")
	}

	// And with nothing left in flight, graceful shutdown is immediate.
	slow.armed.Store(false)
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown after disconnect: %v", err)
	}
}

// TestBackpressure fills a 1-slot write queue against a server whose
// store stalls on writes and asserts surplus inserts get the OVERLOADED
// verdict instead of queueing unboundedly.
func TestBackpressure(t *testing.T) {
	slow := &stallWriteStore{delay: 200 * time.Millisecond}
	_, httpURL, _ := startServer(t, func(c *Config) {
		c.WriteQueue = 1
		c.WrapStore = func(tenant string, s pagestore.Store) pagestore.Store {
			slow.Store = s
			return slow
		}
	})
	hc := client.New(httpURL)
	defer hc.Close()

	ctx := context.Background()
	if _, err := hc.CreateTenant(ctx, "busy", api.TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	slow.armed.Store(true)
	defer slow.armed.Store(false)

	var overloaded atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4; i++ {
				_, err := hc.Insert(ctx, "busy", randSet(rng, 4))
				if api.CodeOf(err) == api.CodeOverloaded {
					overloaded.Add(1)
					if !errors.Is(err, ErrOverloaded) {
						// Wire error carries the stable code; the server-side
						// sentinel equivalence is code-based, not identity.
						_ = err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if overloaded.Load() == 0 {
		t.Fatal("no insert was rejected OVERLOADED despite a 1-slot queue and stalled writes")
	}
}

// stallWriteStore stalls page writes while armed.
type stallWriteStore struct {
	pagestore.Store
	delay time.Duration
	armed atomic.Bool
}

func (s *stallWriteStore) Open(name string) (pagestore.File, error) {
	f, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	return &stallWriteFile{File: f, s: s}, nil
}

type stallWriteFile struct {
	pagestore.File
	s *stallWriteStore
}

func (f *stallWriteFile) WritePage(id pagestore.PageID, buf []byte) error {
	if f.s.armed.Load() {
		time.Sleep(f.s.delay)
	}
	return f.File.WritePage(id, buf)
}

// TestGracefulShutdownUnderLoadLosesNothing drives concurrent inserts,
// shuts the server down mid-stream, reopens the same data directory,
// and asserts every acknowledged write is present — the no-lost-
// committed-writes contract of the graceful shutdown path. It also
// asserts every tenant checkpointed (reopen replays no WAL work and
// reports identical object counts).
func TestGracefulShutdownUnderLoadLosesNothing(t *testing.T) {
	dataDir := ""
	srv, httpURL, _ := startServer(t, func(c *Config) {
		dataDir = c.DataDir
	})
	hc := client.New(httpURL)
	defer hc.Close()

	ctx := context.Background()
	for _, tn := range []string{"t0", "t1"} {
		if _, err := hc.CreateTenant(ctx, tn, api.TenantConfig{Kinds: []string{"bssf"}}); err != nil {
			t.Fatal(err)
		}
	}

	type acked struct {
		tenant string
		oid    uint64
		elems  []string
	}
	var (
		mu    sync.Mutex
		model []acked
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			tn := []string{"t0", "t1"}[w%2]
			for {
				select {
				case <-stop:
					return
				default:
				}
				elems := randSet(rng, 5)
				oid, err := hc.Insert(ctx, tn, elems)
				if err != nil {
					// Shutdown racing the insert: unacknowledged, so it is
					// allowed to be absent after reopen. Stop writing.
					return
				}
				mu.Lock()
				model = append(model, acked{tn, oid, elems})
				mu.Unlock()
			}
		}(w)
	}

	// Let load build, then shut down underneath it.
	time.Sleep(300 * time.Millisecond)
	sctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	acks := append([]acked(nil), model...)
	mu.Unlock()
	if len(acks) == 0 {
		t.Fatal("no write was acknowledged before shutdown — test proves nothing")
	}

	// Reopen the same directory: every tenant must come back clean with
	// every acknowledged write present.
	srv2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer func() {
		sctx2, cancel2 := context.WithTimeout(ctx, 10*time.Second)
		defer cancel2()
		srv2.Shutdown(sctx2)
	}()
	ha2, err := srv2.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hc2 := client.New("http://" + ha2)
	defer hc2.Close()

	infos := srv2.TenantInfos()
	if len(infos) != 2 {
		t.Fatalf("reopened server has %d tenants, want 2", len(infos))
	}
	counts := map[string]int{}
	for _, a := range acks {
		counts[a.tenant]++
	}
	for _, in := range infos {
		if in.Objects < counts[in.Name] {
			t.Errorf("tenant %s reopened with %d objects, acknowledged %d", in.Name, in.Objects, counts[in.Name])
		}
	}
	for _, a := range acks {
		resp, err := hc2.Search(ctx, a.tenant, api.PredEquals, a.elems, nil)
		if err != nil {
			t.Fatalf("reopen verify: %v", err)
		}
		found := false
		for _, o := range resp.OIDs {
			if o == a.oid {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("committed write lost: tenant %s oid %d absent after graceful shutdown + reopen", a.tenant, a.oid)
		}
	}
}

// TestCheckpointTicker asserts the per-tenant checkpoint schedule runs:
// with a fast interval, the checkpoint counter moves without any
// explicit flush.
func TestCheckpointTicker(t *testing.T) {
	srv, httpURL, _ := startServer(t, func(c *Config) {
		c.CheckpointEvery = 50 * time.Millisecond
	})
	hc := client.New(httpURL)
	defer hc.Close()
	ctx := context.Background()
	if _, err := hc.CreateTenant(ctx, "tick", api.TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	tn, err := srv.Tenant("tick")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Insert(ctx, "tick", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tn.checkpoints.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if tn.checkpoints.Value() == 0 {
		t.Fatal("checkpoint ticker never fired")
	}
}

// TestStatsEndpoint drives GET /v1/tenants/{tenant}/stats and MsgStats
// against a sharded tenant: both protocols return the identical catalog
// snapshot, the shard layout is reported per facility, and the error
// surface matches the route's declared codes.
func TestStatsEndpoint(t *testing.T) {
	_, httpURL, binAddr := startServer(t, nil)
	hc := client.New(httpURL)
	defer hc.Close()
	bc := client.Dial(binAddr)
	defer bc.Close()
	ctx := context.Background()

	if _, err := hc.CreateTenant(ctx, "sh", api.TenantConfig{
		Kinds: []string{"bssf", "nix"}, Shards: 4,
	}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range shard counts are rejected at create time.
	if _, err := hc.CreateTenant(ctx, "toomany", api.TenantConfig{Shards: 100}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("shards=100: err = %v, want BAD_REQUEST", err)
	}

	const n = 40
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if _, err := hc.Insert(ctx, "sh", randSet(rng, 5)); err != nil {
			t.Fatal(err)
		}
	}

	hs, err := hc.Stats(ctx, "sh")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := bc.Stats(ctx, "sh")
	if err != nil {
		t.Fatal(err)
	}
	// Protocol parity: the JSON and binary forms carry the same snapshot.
	if fmt.Sprintf("%+v", hs) != fmt.Sprintf("%+v", bs) {
		t.Fatalf("stats diverge across protocols:\nhttp:   %+v\nbinary: %+v", hs, bs)
	}

	if hs.Tenant != "sh" || hs.Objects != n {
		t.Fatalf("tenant=%q objects=%d, want sh/%d", hs.Tenant, hs.Objects, n)
	}
	if len(hs.Facilities) != 2 {
		t.Fatalf("facilities = %+v, want BSSF and NIX", hs.Facilities)
	}
	for _, f := range hs.Facilities {
		if f.Count != n {
			t.Errorf("%s count = %d, want %d", f.Kind, f.Count, n)
		}
		if f.Shards != 4 || len(f.ShardHealth) != 4 {
			t.Errorf("%s shards = %d shard_health = %v, want K=4", f.Kind, f.Shards, f.ShardHealth)
		}
		for _, h := range f.ShardHealth {
			if h != "healthy" {
				t.Errorf("%s shard health %q, want healthy", f.Kind, h)
			}
		}
		if f.Health != "healthy" || f.StoragePages <= 0 {
			t.Errorf("%s health=%q pages=%d", f.Kind, f.Health, f.StoragePages)
		}
		if f.Kind == "BSSF" && (f.F != 256 || f.M != 2) {
			t.Errorf("BSSF design F=%d m=%d, want 256/2", f.F, f.M)
		}
		if f.Kind == "NIX" && f.DistinctElems <= 0 {
			t.Errorf("NIX distinct_elems = %d, want > 0", f.DistinctElems)
		}
	}

	// Unknown tenant is NOT_FOUND on both protocols.
	if _, err := hc.Stats(ctx, "nope"); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("http stats unknown tenant: err = %v, want NOT_FOUND", err)
	}
	if _, err := bc.Stats(ctx, "nope"); api.CodeOf(err) != api.CodeNotFound {
		t.Fatalf("binary stats unknown tenant: err = %v, want NOT_FOUND", err)
	}
}

// TestParallelismOptionIgnored: the wire field parallelism is accepted
// and ignored — a search sent with it answers with the same OIDs and
// stats as one sent without it, over both protocols.
func TestParallelismOptionIgnored(t *testing.T) {
	_, httpURL, binAddr := startServer(t, nil)
	hc := client.New(httpURL)
	defer hc.Close()
	bc := client.Dial(binAddr)
	defer bc.Close()
	ctx := context.Background()

	if _, err := hc.CreateTenant(ctx, "par", api.TenantConfig{Kinds: []string{"bssf", "nix"}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		if _, err := hc.Insert(ctx, "par", randSet(rng, 5)); err != nil {
			t.Fatal(err)
		}
	}
	searches := []struct {
		pred  string
		query []string
	}{
		{api.PredSuperset, []string{elem(1), elem(2)}},
		{api.PredSubset, randSet(rng, 30)},
	}
	for _, c := range []*client.Client{hc, bc} {
		for _, s := range searches {
			want, err := c.Search(ctx, "par", s.pred, s.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats == nil {
				t.Fatalf("%s: no index drove the search (plan %q)", s.pred, want.Plan)
			}
			for _, p := range []int{8, -1} {
				got, err := c.Search(ctx, "par", s.pred, s.query, &api.SearchOptions{Parallelism: p})
				if err != nil {
					t.Fatalf("%s parallelism=%d: %v", s.pred, p, err)
				}
				if fmt.Sprint(got.OIDs) != fmt.Sprint(want.OIDs) {
					t.Errorf("%s parallelism=%d: oids %v, want %v", s.pred, p, got.OIDs, want.OIDs)
				}
				if fmt.Sprintf("%+v", got.Stats) != fmt.Sprintf("%+v", want.Stats) {
					t.Errorf("%s parallelism=%d: stats %+v, want %+v", s.pred, p, got.Stats, want.Stats)
				}
			}
		}
	}
}
