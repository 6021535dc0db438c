package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	api "sigfile/api/v1"
	"sigfile/internal/core"
	"sigfile/internal/obs"
	"sigfile/internal/oodb"
	"sigfile/internal/pagestore"
	"sigfile/internal/query"
	"sigfile/internal/signature"
)

// A tenant is one isolated database behind the server: its own
// directory, its own write-ahead log and checkpoint schedule, its own
// facilities built from its own core.Open config. Nothing is shared
// between tenants except the process — a tenant whose disk fills or
// whose facility degrades affects only its own requests, and the health
// endpoint reports exactly which one.
//
// Writes are serialized through a bounded queue drained by one worker
// goroutine per tenant. The queue is the backpressure boundary: when it
// is full the server answers ErrOverloaded (HTTP 429) immediately
// instead of letting slow storage grow an unbounded backlog. The worker
// group-commits — it drains a small batch, applies every operation,
// then makes the whole batch durable with one WAL commit — so the
// per-insert commit cost amortizes under concurrent writers while every
// acknowledged write is on disk before its response leaves the server.
// Searches do not queue: facilities serve concurrent readers internally.

// itemClass and setAttr name the single class/attribute of a tenant's
// schema: a tenant database indexes one set-valued attribute, exactly
// the paper's "set access facility over one indexed attribute" shape.
const (
	itemClass = "Item"
	setAttr   = "elems"
)

// tenantFileName persists the tenant's configuration inside its
// directory, so a restart reopens every tenant with the facilities it
// was created with.
const tenantFileName = "tenant.json"

// maxTenantName bounds tenant name length on the wire.
const maxTenantName = 64

// validTenantName gates names used as directory components: lowercase
// letters, digits, '-', '_', '.' (not leading), ≤ maxTenantName bytes.
func validTenantName(name string) bool {
	if name == "" || len(name) > maxTenantName || name[0] == '.' {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// writeOp is one queued mutation: run applies it (under the worker
// goroutine, so tenant writes never race each other), done receives the
// verdict exactly once after the batch it rode in committed.
type writeOp struct {
	run  func() error
	done chan error
}

// tenant is the runtime state of one tenant database.
type tenant struct {
	name string
	dir  string
	cfg  api.TenantConfig

	ds  *pagestore.DurableStore // commit/checkpoint scope
	db  *oodb.Database
	eng *query.Engine

	// mu guards closed and the enqueue/close handoff; ops are enqueued
	// under RLock so Close's close(queue) under Lock cannot race a send.
	mu     sync.RWMutex
	closed bool
	queue  chan writeOp

	workerDone  chan struct{}
	tickerStop  chan struct{}
	checkpoints *obs.Counter
	queueDepth  *obs.Gauge
}

// tenantSchema is the fixed single-class schema every tenant database
// uses: one object = one OID plus one set-valued attribute.
func tenantSchema() *oodb.Schema {
	return oodb.MustSchema(oodb.MustClass(itemClass, oodb.AttrDef{Name: setAttr, Kind: oodb.KindStringSet}))
}

// parseKind maps a wire facility kind onto query.IndexKind.
func parseKind(s string) (query.IndexKind, error) {
	switch strings.ToLower(s) {
	case "ssf":
		return query.KindSSF, nil
	case "bssf":
		return query.KindBSSF, nil
	case "fssf":
		return query.KindFSSF, nil
	case "nix":
		return query.KindNIX, nil
	default:
		return 0, api.Errorf(api.CodeBadRequest, "unknown facility kind %q", s)
	}
}

// normalizeConfig applies the tenant-config defaults and validates the
// facility list.
func normalizeConfig(cfg api.TenantConfig) (api.TenantConfig, error) {
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []string{"bssf"}
	}
	seen := map[string]bool{}
	for i, k := range cfg.Kinds {
		k = strings.ToLower(k)
		cfg.Kinds[i] = k
		if _, err := parseKind(k); err != nil {
			return cfg, err
		}
		if seen[k] {
			return cfg, api.Errorf(api.CodeBadRequest, "duplicate facility kind %q", k)
		}
		seen[k] = true
	}
	if cfg.F == 0 {
		cfg.F = 256
	}
	if cfg.M == 0 {
		cfg.M = 2
	}
	if cfg.F < 8 || cfg.F > 1<<16 || cfg.M < 1 || cfg.M > cfg.F {
		return cfg, api.Errorf(api.CodeBadRequest, "signature design F=%d m=%d out of range", cfg.F, cfg.M)
	}
	if cfg.Shards == 1 {
		cfg.Shards = 0 // one shard is the unsharded facility
	}
	if cfg.Shards < 0 || cfg.Shards > 64 {
		return cfg, api.Errorf(api.CodeBadRequest, "shard count %d out of range [2,64]", cfg.Shards)
	}
	return cfg, nil
}

// openTenant opens (or initializes) the tenant rooted at dir. create
// distinguishes "must not exist yet" (create-tenant request) from
// "reopen whatever is there" (startup discovery).
func (s *Server) openTenant(name, dir string, cfg api.TenantConfig, create bool) (*tenant, error) {
	cfgPath := filepath.Join(dir, tenantFileName)
	if create {
		if _, err := os.Stat(cfgPath); err == nil {
			return nil, api.Errorf(api.CodeAlreadyExists, "tenant %q already exists", name)
		}
		var err error
		if cfg, err = normalizeConfig(cfg); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: create tenant dir: %w", err)
		}
		data, err := json.MarshalIndent(cfg, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfgPath, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("server: persist tenant config: %w", err)
		}
	} else {
		data, err := os.ReadFile(cfgPath)
		if err != nil {
			return nil, fmt.Errorf("server: read tenant config: %w", err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			return nil, fmt.Errorf("server: tenant config %s: %w", cfgPath, err)
		}
		if cfg, err = normalizeConfig(cfg); err != nil {
			return nil, err
		}
	}

	ds, err := pagestore.OpenDurableStore(filepath.Join(dir, "data"))
	if err != nil {
		return nil, fmt.Errorf("server: open tenant store: %w", err)
	}
	var store pagestore.Store = ds
	if s.cfg.WrapStore != nil {
		store = s.cfg.WrapStore(name, store)
	}
	db, err := oodb.NewDatabase(tenantSchema(), store)
	if err != nil {
		ds.Close()
		return nil, fmt.Errorf("server: open tenant db: %w", err)
	}
	eng, err := query.NewEngine(db)
	if err != nil {
		ds.Close()
		return nil, err
	}
	scheme, err := signature.New(cfg.F, cfg.M)
	if err != nil {
		ds.Close()
		return nil, api.Errorf(api.CodeBadRequest, "signature design: %v", err)
	}
	var iopts []query.IndexOption
	if cfg.LSM {
		iopts = append(iopts, query.WithLSMIndex())
		if cfg.LSMMemtableOps > 0 {
			iopts = append(iopts, query.WithLSMMemtableSize(cfg.LSMMemtableOps))
		}
		if cfg.LSMCompactAfter > 0 {
			iopts = append(iopts, query.WithLSMCompactAfter(cfg.LSMCompactAfter))
		}
	}
	if cfg.Shards > 1 {
		iopts = append(iopts, query.WithShardedIndex(cfg.Shards))
	}
	for _, ks := range cfg.Kinds {
		kind, err := parseKind(ks)
		if err != nil {
			ds.Close()
			return nil, err
		}
		if _, err := eng.CreateIndex(itemClass, setAttr, kind, scheme, store, iopts...); err != nil {
			ds.Close()
			return nil, fmt.Errorf("server: tenant %s: index %s: %w", name, ks, err)
		}
	}
	// Make the fresh (or just-recovered) state durable before serving.
	if err := ds.Checkpoint(); err != nil {
		ds.Close()
		return nil, fmt.Errorf("server: tenant %s: initial checkpoint: %w", name, err)
	}

	t := &tenant{
		name:        name,
		dir:         dir,
		cfg:         cfg,
		ds:          ds,
		db:          db,
		eng:         eng,
		queue:       make(chan writeOp, s.cfg.WriteQueue),
		workerDone:  make(chan struct{}),
		tickerStop:  make(chan struct{}),
		checkpoints: obs.Default().Counter("sigfile_server_checkpoints_total", "tenant", name),
		queueDepth:  obs.Default().Gauge("sigfile_server_write_queue_depth", "tenant", name),
	}
	go t.writeWorker()
	interval := s.cfg.CheckpointEvery
	if cfg.CheckpointSec > 0 {
		interval = time.Duration(cfg.CheckpointSec) * time.Second
	}
	if interval > 0 {
		go t.checkpointLoop(interval)
	}
	return t, nil
}

// enqueue submits a mutation to the tenant's write queue and waits for
// its durable acknowledgment. A full queue is the backpressure verdict:
// the caller gets ErrOverloaded without blocking. ctx firing while the
// op waits returns the ctx error to the caller; the op itself still
// applies (and commits) when its turn comes — the ambiguity every
// networked store has once a request is accepted, documented on the
// wire as the DEADLINE_EXCEEDED/CANCELED codes being non-verdicts.
func (t *tenant) enqueue(ctx context.Context, run func() error) error {
	op := writeOp{run: run, done: make(chan error, 1)}
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return api.Errorf(api.CodeShuttingDown, "tenant %s is shutting down", t.name)
	}
	select {
	case t.queue <- op:
		t.mu.RUnlock()
		t.queueDepth.Set(int64(len(t.queue)))
	default:
		t.mu.RUnlock()
		srvOverloaded.Inc()
		return ErrOverloaded
	}
	select {
	case err := <-op.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// writeWorker is the tenant's single writer: it drains operations in
// small batches, applies them, and commits each batch with one WAL
// write before acknowledging any of its operations.
func (t *tenant) writeWorker() {
	defer close(t.workerDone)
	const maxBatch = 64
	batch := make([]writeOp, 0, maxBatch)
	for op := range t.queue {
		batch = append(batch[:0], op)
	drain:
		for len(batch) < maxBatch {
			select {
			case more, ok := <-t.queue:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		t.queueDepth.Set(int64(len(t.queue)))
		errs := make([]error, len(batch))
		for i, b := range batch {
			errs[i] = b.run()
		}
		// One commit covers the batch: every op acknowledged below is
		// durable, and ops that failed above report their own error
		// (their partial effects are bounded by the facility health
		// machine, which degrades the tenant on terminal write faults).
		cerr := t.ds.Commit()
		for i, b := range batch {
			if errs[i] == nil {
				errs[i] = cerr
			}
			b.done <- errs[i]
		}
	}
}

// checkpointLoop checkpoints the tenant on its schedule. The checkpoint
// rides the write queue so it serializes with mutations; a full queue
// skips the tick (the next one retries) rather than blocking.
func (t *tenant) checkpointLoop(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			t.mu.RLock()
			if t.closed {
				t.mu.RUnlock()
				return
			}
			op := writeOp{run: t.checkpointNow, done: make(chan error, 1)}
			select {
			case t.queue <- op:
				t.mu.RUnlock()
				<-op.done
			default:
				t.mu.RUnlock()
			}
		case <-t.tickerStop:
			return
		}
	}
}

// checkpointNow commits and truncates the WAL, counting the checkpoint.
func (t *tenant) checkpointNow() error {
	if err := t.ds.Checkpoint(); err != nil {
		return err
	}
	t.checkpoints.Inc()
	return nil
}

// close drains the tenant: no new writes, worker finished, one final
// checkpoint, store closed. Callers must have stopped producing first
// (the server shuts its listeners down before closing tenants).
func (t *tenant) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.queue)
	t.mu.Unlock()
	close(t.tickerStop)
	<-t.workerDone
	err := t.checkpointNow()
	if cerr := t.ds.Close(); err == nil {
		err = cerr
	}
	return err
}

// insert applies one insert through the write queue and returns the
// assigned OID.
func (t *tenant) insert(ctx context.Context, elems []string) (uint64, error) {
	if len(elems) == 0 {
		return 0, api.Errorf(api.CodeBadRequest, "insert needs at least one element")
	}
	var oid oodb.OID
	err := t.enqueue(ctx, func() error {
		var err error
		oid, err = t.eng.Insert(itemClass, map[string]oodb.Value{setAttr: oodb.StringSet(elems...)})
		return err
	})
	return uint64(oid), err
}

// delete removes one object through the write queue.
func (t *tenant) delete(ctx context.Context, oid uint64) error {
	return t.enqueue(ctx, func() error {
		return t.eng.Delete(oodb.OID(oid))
	})
}

// queryFor builds the single-predicate query the wire search/explain
// requests describe.
func queryFor(pred string, elems []string) (*query.Query, error) {
	op, err := wirePredicate(pred)
	if err != nil {
		return nil, err
	}
	return &query.Query{
		Class: itemClass,
		Where: &query.SetPredicate{Attr: setAttr, Op: op, Elems: elems},
	}, nil
}

// wirePredicate maps a wire predicate string onto the signature
// package's operator.
func wirePredicate(p string) (signature.Predicate, error) {
	switch p {
	case api.PredSuperset:
		return signature.Superset, nil
	case api.PredSubset:
		return signature.Subset, nil
	case api.PredOverlap:
		return signature.Overlap, nil
	case api.PredEquals:
		return signature.Equals, nil
	case api.PredContains:
		return signature.Contains, nil
	default:
		return 0, api.Errorf(api.CodeInvalidPredicate, "unknown predicate %q (want one of %s)",
			p, strings.Join(api.Predicates, ", "))
	}
}

// execOptions maps wire search options onto the engine's per-request
// overrides.
func execOptions(o *api.SearchOptions) *query.ExecOptions {
	if o == nil {
		return nil
	}
	return &query.ExecOptions{
		MaxProbeElements: o.MaxProbeElements,
		MaxZeroSlices:    o.MaxZeroSlices,
	}
}

// search answers one wire search request against the tenant.
func (t *tenant) search(ctx context.Context, req *api.SearchRequest) (*api.SearchResponse, error) {
	q, err := queryFor(req.Pred, req.Query)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rs, err := t.eng.ExecuteOptions(ctx, q, execOptions(req.Options))
	if err != nil {
		return nil, err
	}
	resp := &api.SearchResponse{
		OIDs:      make([]uint64, 0, len(rs.Objects)),
		Plan:      rs.Plan,
		ElapsedUS: time.Since(start).Microseconds(),
	}
	for _, o := range rs.Objects {
		resp.OIDs = append(resp.OIDs, uint64(o.OID))
	}
	if rs.IndexStats != nil {
		resp.Stats = wireStats(rs.IndexStats)
	}
	return resp, nil
}

// wireStats copies the library's cost decomposition into the frozen
// wire type.
func wireStats(s *core.SearchStats) *api.SearchStats {
	return &api.SearchStats{
		QueryCardinality: s.QueryCardinality,
		ProbedElements:   s.ProbedElements,
		SlicesRead:       s.SlicesRead,
		IndexPages:       s.IndexPages,
		OIDPages:         s.OIDPages,
		ObjectFetches:    s.ObjectFetches,
		Candidates:       s.Candidates,
		Results:          s.Results,
		FalseDrops:       s.FalseDrops,
		TotalPages:       s.TotalPages(),
	}
}

// searchMany answers a batch sequentially on the request goroutine;
// concurrency comes from the server's connection handling, across
// requests.
func (t *tenant) searchMany(ctx context.Context, req *api.SearchManyRequest) (*api.SearchManyResponse, error) {
	resp := &api.SearchManyResponse{Results: make([]api.SearchResponse, 0, len(req.Searches))}
	for i := range req.Searches {
		one := &api.SearchRequest{
			Pred:    req.Searches[i].Pred,
			Query:   req.Searches[i].Query,
			Options: req.Options,
		}
		r, err := t.search(ctx, one)
		if err != nil {
			return nil, fmt.Errorf("search %d: %w", i, err)
		}
		resp.Results = append(resp.Results, *r)
	}
	return resp, nil
}

// explain plans one wire search without executing it, returning the
// planner's full cost table.
func (t *tenant) explain(req *api.ExplainRequest) (*api.ExplainResponse, error) {
	q, err := queryFor(req.Pred, req.Query)
	if err != nil {
		return nil, err
	}
	text, err := t.eng.ExplainQuery(q)
	if err != nil {
		return nil, err
	}
	return &api.ExplainResponse{Text: text}, nil
}

// health snapshots the tenant for the health endpoint.
func (t *tenant) health() api.TenantHealth {
	th := api.TenantHealth{
		Name:       t.name,
		Objects:    t.db.Count(itemClass),
		QueueDepth: len(t.queue),
		QueueCap:   cap(t.queue),
	}
	for _, am := range t.eng.Indexes(itemClass, setAttr) {
		th.Facilities = append(th.Facilities, api.FacilityHealth{
			Kind:    am.Name(),
			Health:  core.HealthOf(am).String(),
			Pages:   am.StoragePages(),
			Entries: am.Count(),
		})
	}
	return th
}

// stats snapshots every facility's catalog statistics for the stats
// endpoint — the numbers the tenant's own cost-based planner reads,
// exported on the wire.
func (t *tenant) stats() *api.StatsResponse {
	resp := &api.StatsResponse{
		Tenant:  t.name,
		Objects: t.db.Count(itemClass),
	}
	for _, am := range t.eng.Indexes(itemClass, setAttr) {
		d, ok := am.(core.Describer)
		if !ok {
			continue
		}
		fs := d.Describe()
		wf := api.FacilityStats{
			Kind:          fs.Facility,
			Count:         fs.Count,
			AvgSetCard:    fs.AvgSetCard,
			F:             fs.F,
			M:             fs.M,
			Frames:        fs.Frames,
			DistinctElems: fs.DistinctElems,
			LookupPages:   fs.LookupPages,
			StoragePages:  fs.StoragePages,
			Health:        fs.Health.String(),
			Shards:        fs.Shards,
			SegmentCounts: fs.SegmentCounts,
			MemtableCount: fs.MemtableCount,
		}
		for _, h := range fs.ShardHealth {
			wf.ShardHealth = append(wf.ShardHealth, h.String())
		}
		resp.Facilities = append(resp.Facilities, wf)
	}
	return resp
}

// info describes the tenant for the list endpoint.
func (t *tenant) info() api.TenantInfo {
	return api.TenantInfo{Name: t.name, Objects: t.db.Count(itemClass), Config: t.cfg}
}
