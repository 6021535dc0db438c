package query

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sigfile/internal/core"
	"sigfile/internal/obs"
	"sigfile/internal/oodb"
	"sigfile/internal/pagestore"
	"sigfile/internal/planner"
	"sigfile/internal/signature"
)

// Process-wide query metrics, exported through the obs registry. The
// "plan" label separates index-driven queries from heap scans, so the
// ratio is the observability view of how often the facilities actually
// serve the workload.
var (
	obsIndexQueries = obs.Default().Counter("sigfile_queries_total", "plan", "index")
	obsScanQueries  = obs.Default().Counter("sigfile_queries_total", "plan", "scan")
	obsQueryErrors  = obs.Default().Counter("sigfile_query_errors_total")
	obsQueryLatency = obs.Default().Histogram("sigfile_query_duration_ms", obs.DurationBucketsMs)
	obsSlowQueries  = obs.Default().Counter("sigfile_slow_queries_total")
)

// IndexKind selects a set access facility for CreateIndex.
type IndexKind int

// The available facilities.
const (
	KindSSF IndexKind = iota
	KindBSSF
	KindNIX
	KindFSSF
)

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case KindSSF:
		return "SSF"
	case KindBSSF:
		return "BSSF"
	case KindNIX:
		return "NIX"
	case KindFSSF:
		return "FSSF"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// coreKind maps the engine-level kind to the unified construction API's.
func (k IndexKind) coreKind() (core.Kind, error) {
	switch k {
	case KindSSF:
		return core.KindSSF, nil
	case KindBSSF:
		return core.KindBSSF, nil
	case KindNIX:
		return core.KindNIX, nil
	case KindFSSF:
		return core.KindFSSF, nil
	default:
		return 0, fmt.Errorf("query: unknown index kind %d", int(k))
	}
}

// Engine executes queries over an oodb.Database, routing set predicates
// through registered set access facilities and maintaining those
// facilities across inserts and deletes. Mutations must flow through the
// engine (Insert/Delete), not the raw database, or indexes go stale.
type Engine struct {
	db *oodb.Database
	// indexes maps "Class.attr" to every facility registered on that
	// path; the planner chooses among them per query.
	indexes map[string][]*indexEntry
	// cats holds per-attribute element statistics (the planner's V),
	// maintained on Insert/Delete and seeded at CreateIndex.
	cats map[string]*attrCatalog
	// pl is the cost-based planner driving access-path selection.
	pl *planner.Planner
	// slowMu guards the slow-search log configuration; the log writer
	// itself is serialized under the same lock so interleaved queries
	// produce whole lines.
	slowMu        sync.Mutex
	slowLog       io.Writer
	slowThreshold time.Duration
}

type indexEntry struct {
	am    core.AccessMethod
	kind  IndexKind
	class string
	attr  string // direct attribute name, or dotted "setAttr.leafAttr" path
	// nested resolves the paper's §4.3 nested path (attr contains a
	// dot); nil for direct set attributes.
	nested *oodb.NestedSetSource
}

// elemsOf returns the indexed set value of one stored object under this
// entry's path.
func (ent *indexEntry) elemsOf(db *oodb.Database, oid oodb.OID) ([]string, error) {
	if ent.nested != nil {
		return ent.nested.Set(uint64(oid))
	}
	o, err := db.Get(oid)
	if err != nil {
		return nil, err
	}
	return o.SetAttr(ent.attr)
}

// NewEngine wraps a database.
func NewEngine(db *oodb.Database) (*Engine, error) {
	if db == nil {
		return nil, fmt.Errorf("query: nil database")
	}
	return &Engine{
		db:      db,
		indexes: make(map[string][]*indexEntry),
		cats:    make(map[string]*attrCatalog),
		pl:      planner.New(),
	}, nil
}

// DB returns the underlying database.
func (e *Engine) DB() *oodb.Database { return e.db }

// Planner returns the engine's cost-based planner, e.g. to switch
// adaptive correction on: e.Planner().SetAdaptive(true).
func (e *Engine) Planner() *planner.Planner { return e.pl }

// SetSlowSearchLog makes the engine write a one-line report — query,
// plan, latency and, for index-driven queries, the per-phase trace — for
// every query slower than threshold. A nil writer (or threshold ≤ 0)
// turns the log off. Safe to call while queries run.
func (e *Engine) SetSlowSearchLog(w io.Writer, threshold time.Duration) {
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	if threshold <= 0 {
		w = nil
	}
	e.slowLog = w
	e.slowThreshold = threshold
}

// observeQuery records one finished query in the obs registry and the
// slow-search log.
func (e *Engine) observeQuery(q *Query, rs *ResultSet, err error, elapsed time.Duration) {
	obsQueryLatency.Observe(float64(elapsed) / float64(time.Millisecond))
	switch {
	case err != nil:
		obsQueryErrors.Inc()
	case rs.IndexStats != nil:
		obsIndexQueries.Inc()
	default:
		obsScanQueries.Inc()
	}
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	if e.slowLog == nil || elapsed < e.slowThreshold || err != nil {
		return
	}
	obsSlowQueries.Inc()
	line := fmt.Sprintf("slow query (%s): %s | plan: %s", elapsed.Round(time.Microsecond), q, rs.Plan)
	if rs.Trace != nil {
		line += " | " + rs.Trace.String()
	}
	fmt.Fprintln(e.slowLog, line)
}

// IndexOption tunes the facility CreateIndex builds, applied to the
// core.Config after the positional arguments are folded in.
type IndexOption func(*core.Config)

// WithLSMIndex builds the index on the log-structured write path
// (DESIGN.md §13): WAL-backed memtable, sealed segments, O(1) tombstone
// deletes. Search results are identical to the in-place path; the
// planner accounts for the per-segment read fan-out.
func WithLSMIndex() IndexOption {
	return func(c *core.Config) { c.LSM = true }
}

// WithLSMMemtableSize selects the LSM write path with the given flush
// trigger (memtable operations per segment).
func WithLSMMemtableSize(n int) IndexOption {
	return func(c *core.Config) { c.LSM = true; c.LSMMemtableOps = n }
}

// WithLSMCompactAfter selects the LSM write path with the given
// compaction trigger (segment count that forces a merge).
func WithLSMCompactAfter(n int) IndexOption {
	return func(c *core.Config) { c.LSM = true; c.LSMCompactAfter = n }
}

// WithShardedIndex hash-partitions the index across k shards, searched
// shard by shard (DESIGN.md §16). Results are identical to the unsharded
// facility; the planner prices the K shard visits and routes
// around a facility whose worst shard is degraded.
func WithShardedIndex(k int) IndexOption {
	return func(c *core.Config) { c.Shards = k }
}

// CreateIndex builds a set access facility of the given kind on the path
// class.attr, bulk-loading it from the existing objects. attr may be a
// nested path "setAttr.leafAttr" through a set<ref> attribute — the
// paper's §4.3 example is the NIX on "Student.courses.category". scheme
// is required for SSF/BSSF/FSSF (the FSSF frame split is derived from
// it) and ignored for NIX. store receives the facility's files (nil =
// in-memory).
//
// Several facilities of different kinds may index the same path; the
// planner picks the cheapest per query. Only a second facility of the
// same kind is rejected.
//
// Nested indexes are maintained when objects of the indexed class are
// inserted or deleted through the engine; like the paper's model, they
// do NOT track updates to the *referenced* objects (changing a course's
// category does not re-key the students pointing at it) — the classical
// nested-index maintenance problem, out of scope here.
//
// opts tune the facility's construction — WithLSMIndex selects the
// log-structured write path (DESIGN.md §13).
func (e *Engine) CreateIndex(class, attr string, kind IndexKind, scheme *signature.Scheme, store pagestore.Store, opts ...IndexOption) (core.AccessMethod, error) {
	key := class + "." + attr
	for _, ent := range e.indexes[key] {
		if ent.kind == kind {
			return nil, fmt.Errorf("query: %s index on %s already exists", kind, key)
		}
	}
	ck, err := kind.coreKind()
	if err != nil {
		return nil, err
	}
	var src core.SetSource
	var nested *oodb.NestedSetSource
	if setAttr, leafAttr, isNested := strings.Cut(attr, "."); isNested {
		nested, err = e.db.NewNestedSetSource(class, setAttr, leafAttr)
		src = nested
	} else {
		src, err = e.db.NewSetSource(class, attr)
	}
	if err != nil {
		return nil, err
	}
	if store != nil {
		// Namespace the facility's files so several indexes can share
		// one store; the per-kind file names keep kinds apart within it.
		store = pagestore.Prefixed(store, key)
	}
	cfg := core.Config{Kind: ck, Scheme: scheme, Source: src, Store: store}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	am, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	// Seed the attribute catalog on the first facility for this path; a
	// second facility reuses it.
	cat := e.cats[key]
	fill := cat == nil
	if fill {
		cat = newAttrCatalog()
	}
	scanElems := func(fn func(oid uint64, elems []string) error) error {
		return e.db.Scan(class, func(o *oodb.Object) error {
			var elems []string
			var err error
			if nested != nil {
				elems, err = nested.Set(uint64(o.OID))
			} else {
				elems, err = o.SetAttr(attr)
			}
			if err != nil {
				return err
			}
			return fn(uint64(o.OID), elems)
		})
	}
	if am.Count() > 0 {
		// The store already holds this facility's files (a persistent
		// store reopened after a shutdown or crash): the constructor
		// recovered its state, so bulk loading would double-insert. The
		// catalog still needs seeding from the heap.
		if fill {
			if err := scanElems(func(_ uint64, elems []string) error {
				cat.add(elems)
				return nil
			}); err != nil {
				return nil, fmt.Errorf("query: seed catalog %s: %w", key, err)
			}
		}
	} else {
		// Bulk load from the heap, batching page writes where the
		// facility supports it.
		var entries []core.Entry
		err = scanElems(func(oid uint64, elems []string) error {
			entries = append(entries, core.Entry{OID: oid, Elems: elems})
			if fill {
				cat.add(elems)
			}
			return nil
		})
		if err == nil {
			err = core.InsertAll(am, entries)
		}
		if err != nil {
			return nil, fmt.Errorf("query: bulk load %s: %w", key, err)
		}
	}
	e.cats[key] = cat
	e.indexes[key] = append(e.indexes[key], &indexEntry{am: am, kind: kind, class: class, attr: attr, nested: nested})
	return am, nil
}

// Index returns the first access method registered on class.attr, or
// nil. With several facilities on the path, Indexes lists them all.
func (e *Engine) Index(class, attr string) core.AccessMethod {
	ents := e.indexes[class+"."+attr]
	if len(ents) == 0 {
		return nil
	}
	return ents[0].am
}

// Indexes returns every access method registered on class.attr in
// creation order.
func (e *Engine) Indexes(class, attr string) []core.AccessMethod {
	ents := e.indexes[class+"."+attr]
	out := make([]core.AccessMethod, len(ents))
	for i, ent := range ents {
		out[i] = ent.am
	}
	return out
}

// Insert stores a new object and maintains every index (and its
// attribute catalog) on its class.
func (e *Engine) Insert(class string, attrs map[string]oodb.Value) (oodb.OID, error) {
	oid, err := e.db.Insert(class, attrs)
	if err != nil {
		return oodb.NilOID, err
	}
	for key, ents := range e.indexes {
		if len(ents) == 0 || ents[0].class != class {
			continue
		}
		elems, err := ents[0].elemsOf(e.db, oid)
		if err != nil {
			return oodb.NilOID, fmt.Errorf("query: maintain index %s: %w", key, err)
		}
		for _, ent := range ents {
			if err := ent.am.Insert(uint64(oid), elems); err != nil {
				return oodb.NilOID, fmt.Errorf("query: maintain index %s: %w", key, err)
			}
		}
		if cat := e.cats[key]; cat != nil {
			cat.add(elems)
		}
	}
	return oid, nil
}

// Delete removes an object and maintains every index (and its attribute
// catalog) on its class.
func (e *Engine) Delete(oid oodb.OID) error {
	o, err := e.db.Get(oid)
	if err != nil {
		return err
	}
	for key, ents := range e.indexes {
		if len(ents) == 0 || ents[0].class != o.Class {
			continue
		}
		elems, err := ents[0].elemsOf(e.db, oid)
		if err != nil {
			return err
		}
		for _, ent := range ents {
			if err := ent.am.Delete(uint64(oid), elems); err != nil {
				return fmt.Errorf("query: maintain index %s: %w", key, err)
			}
		}
		if cat := e.cats[key]; cat != nil {
			cat.remove(elems)
		}
	}
	return e.db.Delete(oid)
}

// attrCatalog tracks element reference counts on one indexed path, so
// the planner's domain cardinality V stays fresh across mutations.
type attrCatalog struct {
	mu   sync.RWMutex
	refs map[string]int
}

func newAttrCatalog() *attrCatalog { return &attrCatalog{refs: make(map[string]int)} }

func (c *attrCatalog) add(elems []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range dedupElems(elems) {
		c.refs[el]++
	}
}

func (c *attrCatalog) remove(elems []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range dedupElems(elems) {
		if n := c.refs[el]; n <= 1 {
			delete(c.refs, el)
		} else {
			c.refs[el] = n - 1
		}
	}
}

// distinct returns V, the number of distinct element values live on the
// attribute.
func (c *attrCatalog) distinct() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.refs)
}

// dedupElems returns the distinct elements of a set value, preserving
// first-occurrence order.
func dedupElems(elems []string) []string {
	seen := make(map[string]struct{}, len(elems))
	out := make([]string, 0, len(elems))
	for _, el := range elems {
		if _, dup := seen[el]; dup {
			continue
		}
		seen[el] = struct{}{}
		out = append(out, el)
	}
	return out
}

// ResultSet is the outcome of a query.
type ResultSet struct {
	// Objects are the qualifying objects in ascending OID order.
	Objects []*oodb.Object
	// Plan describes how the query was executed, e.g.
	// "index(BSSF Student.hobbies T ⊇ Q)" or "scan(Student)". It is
	// PlanNode.String() of the structured plan.
	Plan string
	// PlanNode is the structured form of Plan.
	PlanNode *PlanNode
	// Planning is the cost-based planner's full decision — every costed
	// (facility, strategy) candidate and the reason the winner won; nil
	// for heap scans.
	Planning *planner.Plan
	// IndexStats holds the access-method cost decomposition when an
	// index served the query.
	IndexStats *core.SearchStats
	// Trace is the driving index search's phase decomposition (nil for
	// heap scans). Its span page counts sum exactly to
	// IndexStats.TotalPages().
	Trace *obs.Trace
}

// OIDs returns the result OIDs.
func (r *ResultSet) OIDs() []oodb.OID {
	out := make([]oodb.OID, len(r.Objects))
	for i, o := range r.Objects {
		out[i] = o.OID
	}
	return out
}

// Run parses and executes a query in one step.
func (e *Engine) Run(input string) (*ResultSet, error) {
	return e.RunContext(context.Background(), input)
}

// RunContext parses and executes a query in one step, honoring ctx
// cancellation inside the index searches it drives.
func (e *Engine) RunContext(ctx context.Context, input string) (*ResultSet, error) {
	q, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.ExecuteContext(ctx, q)
}

// Execute runs a parsed query. Conjunctions are driven by the first set
// predicate with a registered access facility; the remaining parts
// filter its candidates per object. Without an indexable part the query
// falls back to a heap scan evaluating every part.
func (e *Engine) Execute(q *Query) (*ResultSet, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation: ctx is threaded into every
// index search (and subquery), which return ctx.Err() promptly when it
// fires. The driving search is always traced; the trace lands in
// ResultSet.Trace and additionally in any sink already riding ctx
// (obs.ContextWithSink).
func (e *Engine) ExecuteContext(ctx context.Context, q *Query) (*ResultSet, error) {
	return e.ExecuteOptions(ctx, q, nil)
}

// ExecOptions overrides the engine's defaults for one query — the
// per-request strategy surface the sigfiled server exposes on its wire
// API. The zero value (or nil) changes nothing: the planner still picks
// the facility and its smart caps.
type ExecOptions struct {
	// MaxProbeElements, when positive, overrides the planner's probe
	// cap for the driving superset/contains search (§5.1.3).
	MaxProbeElements int
	// MaxZeroSlices, when positive, overrides the planner's zero-slice
	// cap for the driving BSSF subset search (§5.2.2).
	MaxZeroSlices int
}

// ExecuteOptions is ExecuteContext with per-query option overrides.
func (e *Engine) ExecuteOptions(ctx context.Context, q *Query, eo *ExecOptions) (*ResultSet, error) {
	start := time.Now()
	rs, err := e.executeCtx(ctx, q, eo)
	e.observeQuery(q, rs, err, time.Since(start))
	return rs, err
}

func (e *Engine) executeCtx(ctx context.Context, q *Query, eo *ExecOptions) (*ResultSet, error) {
	cls, ok := e.db.Schema().Class(q.Class)
	if !ok {
		return nil, fmt.Errorf("query: unknown class %q", q.Class)
	}
	parts, err := e.compileParts(ctx, cls, q.Where)
	if err != nil {
		return nil, err
	}

	// Pick the driver: the cheapest (facility, strategy) pair across the
	// indexed set predicates, per the cost-based planner.
	dp := e.pickDriver(q.Class, parts)
	if dp == nil {
		return e.scanAll(q.Class, cls, parts)
	}

	d := parts[dp.part]
	ent := dp.ent
	// Trace the driving search into a local collector; a sink already on
	// ctx keeps receiving the trace too.
	collector := &obs.Collector{}
	sink := obs.TraceSink(collector)
	if parent := obs.SinkFrom(ctx); parent != nil {
		sink = obs.SinkFunc(func(t *obs.Trace) {
			collector.EmitTrace(t)
			parent.EmitTrace(t)
		})
	}
	probeCap, zeroCap := dp.cand.MaxProbeElements, dp.cand.MaxZeroSlices
	if eo != nil {
		// Per-request overrides (the server's wire options) win over the
		// planner's choices; zero values defer to the planner.
		if eo.MaxProbeElements > 0 {
			probeCap = eo.MaxProbeElements
		}
		if eo.MaxZeroSlices > 0 {
			zeroCap = eo.MaxZeroSlices
		}
	}
	opts := []core.SearchOption{core.WithTrace(sink)}
	if probeCap > 0 {
		opts = append(opts, core.WithMaxProbeElements(probeCap))
	}
	if zeroCap > 0 {
		opts = append(opts, core.WithMaxZeroSlices(zeroCap))
	}
	res, err := ent.am.SearchContext(ctx, d.set.Op, d.match.Elems(), opts...)
	if err != nil {
		return nil, err
	}
	// Close the planning loop: the measured page count corrects future
	// estimates for this (facility, predicate) in adaptive mode.
	e.pl.Feedback(ent.am.Name(), d.set.Op, dp.cand.EstimatedRC, float64(res.Stats.TotalPages()))
	rest := append(append([]compiledPart{}, parts[:dp.part]...), parts[dp.part+1:]...)
	objs := make([]*oodb.Object, 0, len(res.OIDs))
	for _, oid := range res.OIDs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o, err := e.db.Get(oodb.OID(oid))
		if err != nil {
			return nil, err
		}
		ok, err := evalParts(o, rest)
		if err != nil {
			return nil, err
		}
		if ok {
			objs = append(objs, o)
		}
	}
	node := &PlanNode{
		Kind:             "index",
		Facility:         ent.am.Name(),
		Class:            q.Class,
		Attr:             d.set.Attr,
		Predicate:        d.set.Op.String(),
		Strategy:         string(dp.cand.Strategy),
		MaxProbeElements: probeCap,
		MaxZeroSlices:    zeroCap,
		Filters:          len(rest),
		Children:         childPlans(parts),
	}
	if !math.IsInf(dp.cand.CorrectedRC, 0) {
		node.EstimatedPages = dp.cand.CorrectedRC
	}
	stats := res.Stats
	rs := &ResultSet{Objects: objs, Plan: node.String(), PlanNode: node, Planning: dp.plan, IndexStats: &stats}
	// The driver emitted exactly one trace; subquery traces (if any) were
	// recorded by the subquery's own ResultSet, so take the last.
	if traces := collector.Traces(); len(traces) > 0 {
		rs.Trace = traces[len(traces)-1]
	}
	return rs, nil
}

// compiledPart is a predicate with its operands resolved (subqueries
// executed, attribute kinds validated).
type compiledPart struct {
	set *SetPredicate
	// match is the resolved query set compiled against set.Op (set parts
	// only): the driving search's query and the per-object test.
	match *signature.Compiled
	sub   *PlanNode
	// nested resolves a dotted-path set predicate per object.
	nested  *oodb.NestedSetSource
	cmp     *ComparePredicate
	cmpKind oodb.Kind
}

// driverPlan is the planner's winning access path for one conjunction:
// which part drives, through which facility, with what strategy.
type driverPlan struct {
	part int
	ent  *indexEntry
	cand planner.Candidate
	plan *planner.Plan
}

// pickDriver costs every indexed set predicate of the conjunction
// against every facility on its attribute and returns the cheapest
// (part, facility, strategy), or nil when nothing is indexed. Unhealthy
// facilities are routed around: failed ones are never considered, and
// degraded (read-only) ones only when no healthy facility covers the
// attribute — a degraded signature file still answers exactly, it just
// may be slower to come back, so it beats a heap scan but not a healthy
// sibling.
func (e *Engine) pickDriver(class string, parts []compiledPart) *driverPlan {
	var best *driverPlan
	for i, p := range parts {
		if p.set == nil {
			continue
		}
		key := class + "." + p.set.Attr
		ents := servableEntries(e.indexes[key])
		if len(ents) == 0 {
			continue
		}
		pl := e.planFor(key, ents, p.set.Op, len(p.match.Elems()))
		c := pl.Chosen()
		if c == nil || c.Index >= len(ents) {
			continue
		}
		if best == nil || c.CorrectedRC < best.cand.CorrectedRC {
			best = &driverPlan{part: i, ent: ents[c.Index], cand: *c, plan: pl}
		}
	}
	return best
}

// servableEntries filters one path's facilities by health: failed ones
// are dropped, degraded ones kept only when nothing healthy remains.
// The returned slice is what planFor costs, so Candidate.Index stays
// aligned with it.
func servableEntries(ents []*indexEntry) []*indexEntry {
	var healthy, degraded []*indexEntry
	for _, ent := range ents {
		switch core.HealthOf(ent.am) {
		case core.Healthy:
			healthy = append(healthy, ent)
		case core.Degraded:
			degraded = append(degraded, ent)
		}
	}
	if len(healthy) > 0 {
		return healthy
	}
	return degraded
}

// planFor runs the cost-based planner over the facilities registered on
// one path, assembling the shared catalog from the attribute statistics
// and the facilities' own Describe() snapshots.
func (e *Engine) planFor(key string, ents []*indexEntry, op signature.Predicate, dq int) *planner.Plan {
	descs := make([]core.FacilityStats, len(ents))
	for i, ent := range ents {
		if d, ok := ent.am.(core.Describer); ok {
			descs[i] = d.Describe()
		} else {
			descs[i] = core.FacilityStats{Facility: ent.am.Name(), Count: ent.am.Count()}
		}
	}
	cat := planner.Catalog{}
	if c := e.cats[key]; c != nil {
		cat.V = c.distinct()
	}
	for _, d := range descs {
		if d.Count > cat.N {
			cat.N = d.Count
		}
		if cat.Dt == 0 && d.AvgSetCard > 0 {
			cat.Dt = d.AvgSetCard
		}
		if d.DistinctElems > cat.V {
			cat.V = d.DistinctElems
		}
	}
	return e.pl.Plan(op, dq, cat, descs)
}

// flattenPredicate lists the conjunction's parts (a simple predicate is
// its own 1-element conjunction).
func flattenPredicate(p Predicate) []Predicate {
	if and, ok := p.(*AndPredicate); ok {
		return and.Parts
	}
	return []Predicate{p}
}

// compileParts validates and resolves every part of the where clause.
func (e *Engine) compileParts(ctx context.Context, cls *oodb.Class, where Predicate) ([]compiledPart, error) {
	var out []compiledPart
	for _, p := range flattenPredicate(where) {
		switch pred := p.(type) {
		case *SetPredicate:
			elems, sub, err := e.resolveElems(ctx, cls, pred)
			if err != nil {
				return nil, err
			}
			match, err := signature.Compile(pred.Op, elems)
			if err != nil {
				return nil, fmt.Errorf("query: %w", err)
			}
			part := compiledPart{set: pred, match: match, sub: sub}
			if setAttr, leafAttr, isNested := strings.Cut(pred.Attr, "."); isNested {
				part.nested, err = e.db.NewNestedSetSource(cls.Name, setAttr, leafAttr)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, part)
		case *ComparePredicate:
			kind, ok := cls.AttrKind(pred.Attr)
			if !ok {
				return nil, fmt.Errorf("query: class %s has no attribute %q", cls.Name, pred.Attr)
			}
			if err := checkCompareKind(cls.Name, pred, kind); err != nil {
				return nil, err
			}
			out = append(out, compiledPart{cmp: pred, cmpKind: kind})
		default:
			return nil, fmt.Errorf("query: unsupported predicate %T", p)
		}
	}
	return out, nil
}

// checkCompareKind validates literal/attribute type compatibility at
// compile time.
func checkCompareKind(class string, pred *ComparePredicate, kind oodb.Kind) error {
	switch {
	case pred.Str != nil:
		if kind != oodb.KindString {
			return fmt.Errorf("query: %s.%s is %v, compared to a string", class, pred.Attr, kind)
		}
	case pred.Int != nil:
		if kind != oodb.KindInt && kind != oodb.KindRef {
			return fmt.Errorf("query: %s.%s is %v, compared to an integer", class, pred.Attr, kind)
		}
	case pred.Float != nil:
		if kind != oodb.KindFloat {
			return fmt.Errorf("query: %s.%s is %v, compared to a float", class, pred.Attr, kind)
		}
	default:
		return fmt.Errorf("query: comparison without a literal")
	}
	return nil
}

// evalParts evaluates every compiled part against one object.
func evalParts(o *oodb.Object, parts []compiledPart) (bool, error) {
	for _, p := range parts {
		ok, err := evalPart(o, p)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func evalPart(o *oodb.Object, p compiledPart) (bool, error) {
	if p.set != nil {
		var target []string
		var err error
		if p.nested != nil {
			target, err = p.nested.Set(uint64(o.OID))
		} else {
			target, err = o.SetAttr(p.set.Attr)
		}
		if err != nil {
			return false, err
		}
		return p.match.Match(target), nil
	}
	v, ok := o.Attr(p.cmp.Attr)
	if !ok {
		return false, fmt.Errorf("query: object %d lacks attribute %q", o.OID, p.cmp.Attr)
	}
	var hit bool
	switch {
	case p.cmp.Str != nil:
		hit = v.Str == *p.cmp.Str
	case p.cmp.Int != nil:
		if p.cmpKind == oodb.KindRef {
			hit = v.Ref == oodb.OID(*p.cmp.Int)
		} else {
			hit = v.Int == *p.cmp.Int
		}
	case p.cmp.Float != nil:
		hit = v.Float == *p.cmp.Float
	}
	return hit != p.cmp.Neq, nil
}

// childPlans collects the subquery plans of all parts in order.
func childPlans(parts []compiledPart) []*PlanNode {
	var out []*PlanNode
	for _, p := range parts {
		if p.sub != nil {
			out = append(out, p.sub)
		}
	}
	return out
}

// scanAll answers a query by scanning the heap and evaluating every
// part.
func (e *Engine) scanAll(class string, cls *oodb.Class, parts []compiledPart) (*ResultSet, error) {
	var objs []*oodb.Object
	err := e.db.Scan(class, func(o *oodb.Object) error {
		ok, err := evalParts(o, parts)
		if err != nil {
			return err
		}
		if ok {
			objs = append(objs, o)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortObjects(objs)
	var desc []string
	for _, p := range parts {
		if p.set != nil {
			desc = append(desc, p.set.Op.String())
		}
	}
	node := &PlanNode{Kind: "scan", Class: class, FilterOps: desc, Children: childPlans(parts)}
	return &ResultSet{Objects: objs, Plan: node.String(), PlanNode: node}, nil
}

// resolveElems materializes the query set of a set predicate, executing
// the subquery if present. Subquery results are encoded as OID elements,
// so they are only meaningful against set<ref> attributes.
func (e *Engine) resolveElems(ctx context.Context, cls *oodb.Class, pred *SetPredicate) ([]string, *PlanNode, error) {
	if strings.Contains(pred.Attr, ".") {
		// Nested path: the indexed elements are the (scalar) leaf values,
		// so literals pass through and subqueries are rejected.
		if pred.Sub != nil {
			return nil, nil, fmt.Errorf("query: nested path %s.%s does not take a subquery operand", cls.Name, pred.Attr)
		}
		return pred.Elems, nil, nil
	}
	kind, ok := cls.AttrKind(pred.Attr)
	if !ok {
		return nil, nil, fmt.Errorf("query: class %s has no attribute %q", cls.Name, pred.Attr)
	}
	if !kind.IsSet() {
		return nil, nil, fmt.Errorf("query: %s.%s is %v; set operators need a set attribute", cls.Name, pred.Attr, kind)
	}
	if pred.Sub == nil {
		if kind == oodb.KindRefSet {
			// Literal operands against a ref set are numeric OIDs.
			elems := make([]string, 0, len(pred.Elems))
			for _, lit := range pred.Elems {
				oid, err := strconv.ParseUint(lit, 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("query: %s.%s is set<ref>; element %q is not an OID", cls.Name, pred.Attr, lit)
				}
				elems = append(elems, oodb.EncodeOID(oodb.OID(oid)))
			}
			return elems, nil, nil
		}
		return pred.Elems, nil, nil
	}
	if kind != oodb.KindRefSet {
		return nil, nil, fmt.Errorf("query: %s.%s is %v; a subquery operand needs a set<ref> attribute", cls.Name, pred.Attr, kind)
	}
	sub, err := e.executeCtx(ctx, pred.Sub, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("query: subquery: %w", err)
	}
	elems := make([]string, 0, len(sub.Objects))
	for _, o := range sub.Objects {
		elems = append(elems, oodb.EncodeOID(o.OID))
	}
	return elems, sub.PlanNode, nil
}

func sortObjects(objs []*oodb.Object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].OID < objs[j].OID })
}

// Explain returns the plan a query would use without running the data
// access (subqueries are still executed to resolve their plans). The
// input may carry a redundant leading EXPLAIN keyword. When the planner
// can cost the query, the report includes its full per-candidate cost
// table and the reason the winner won.
func (e *Engine) Explain(input string) (string, error) {
	stmt, err := ParseStatement(input)
	if err != nil {
		return "", err
	}
	return e.ExplainQuery(stmt.Query)
}

// ExplainQuery is Explain over an already-parsed query.
func (e *Engine) ExplainQuery(q *Query) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", q)
	// Cost the query exactly like executeCtx would. Compilation can fail
	// where Explain should still answer (unknown class, bad subquery);
	// then fall back to inspection-only output.
	var dp *driverPlan
	driverIdx := -1
	if cls, ok := e.db.Schema().Class(q.Class); ok {
		if parts, err := e.compileParts(context.Background(), cls, q.Where); err == nil {
			if dp = e.pickDriver(q.Class, parts); dp != nil {
				driverIdx = dp.part
			}
		}
	}
	legacyIdx := -1
	if dp == nil {
		legacyIdx = firstIndexed(e, q)
	}
	for i, part := range flattenPredicate(q.Where) {
		prefix := "plan: "
		if i > 0 {
			prefix = "  and "
		}
		sp, ok := part.(*SetPredicate)
		switch {
		case ok && i == driverIdx:
			suffix := smartSuffix(string(dp.cand.Strategy), dp.cand.MaxProbeElements, dp.cand.MaxZeroSlices)
			fmt.Fprintf(&b, "%s index(%s %s.%s %s)%s\n", prefix, dp.ent.am.Name(), q.Class, sp.Attr, sp.Op, suffix)
		case ok && i == legacyIdx:
			ent := e.indexes[q.Class+"."+sp.Attr][0]
			fmt.Fprintf(&b, "%s index(%s %s.%s %s)\n", prefix, ent.am.Name(), q.Class, sp.Attr, sp.Op)
		case ok:
			fmt.Fprintf(&b, "%s filter %s on %s\n", prefix, sp.Op, q.Class)
		default:
			fmt.Fprintf(&b, "%s filter compare on %s\n", prefix, q.Class)
		}
	}
	if driverIdx < 0 && legacyIdx < 0 {
		fmt.Fprintf(&b, "  via scan(%s)\n", q.Class)
	}
	if dp != nil {
		writeCostTable(&b, dp.plan)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// writeCostTable renders the planner's per-candidate cost table for
// EXPLAIN output.
func writeCostTable(b *strings.Builder, pl *planner.Plan) {
	fmt.Fprintf(b, "planner: Dq=%d N=%d Dt=%.1f V=%d\n", pl.Dq, pl.Catalog.N, pl.Catalog.Dt, pl.Catalog.V)
	for i, c := range pl.Candidates {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		label := string(c.Strategy) + smartCaps(c)
		if c.Unmodeled {
			fmt.Fprintf(b, "  %s %-5s %-12s (no cost model)\n", marker, c.Facility, label)
			continue
		}
		fmt.Fprintf(b, "  %s %-5s %-12s est=%.1f corrected=%.1f\n", marker, c.Facility, label, c.EstimatedRC, c.CorrectedRC)
	}
	fmt.Fprintf(b, "reason: %s\n", pl.Reason)
}

// smartCaps renders a candidate's smart parameters ("" for naive).
func smartCaps(c planner.Candidate) string {
	switch {
	case c.MaxProbeElements > 0:
		return fmt.Sprintf(" k=%d", c.MaxProbeElements)
	case c.MaxZeroSlices > 0:
		return fmt.Sprintf(" z=%d", c.MaxZeroSlices)
	default:
		return ""
	}
}

// firstIndexed returns the index of the first part of q's conjunction
// that an access facility can drive, or -1. It is the inspection-only
// fallback for Explain when compilation fails.
func firstIndexed(e *Engine, q *Query) int {
	for i, part := range flattenPredicate(q.Where) {
		if sp, ok := part.(*SetPredicate); ok {
			if len(e.indexes[q.Class+"."+sp.Attr]) > 0 {
				return i
			}
		}
	}
	return -1
}
