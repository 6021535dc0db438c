package core

import (
	"fmt"

	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// This file is the unified construction surface: one entry point for all
// four facilities, configured by a Config plus functional options, so
// call sites (sigfile.Open, query.CreateIndex, the examples) no longer
// switch over per-facility constructors.

// Kind selects a set access facility for Open.
type Kind int

// The four shipped facilities.
const (
	KindSSF Kind = iota
	KindBSSF
	KindNIX
	KindFSSF
)

// String implements fmt.Stringer, returning the access-method name.
func (k Kind) String() string {
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
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes the facility Open builds. Kind and Source are always
// required; Scheme is required for the signature facilities (SSF, BSSF,
// and — unless FrameScheme is set — FSSF) and ignored by NIX.
type Config struct {
	// Kind selects the facility.
	Kind Kind
	// Scheme is the signature design (F, m) for SSF and BSSF. For FSSF
	// without an explicit FrameScheme, Open derives one from it (see
	// WithFrames).
	Scheme *signature.Scheme
	// FrameScheme is the frame design (K, S, m) for FSSF; overrides
	// Scheme/Frames when set.
	FrameScheme *signature.FrameScheme
	// Source resolves OIDs to their exact set values during false-drop
	// resolution / candidate verification. Required.
	Source SetSource
	// Store receives the facility's files; nil means a fresh in-memory
	// store. A store already holding the facility's files reopens it.
	Store pagestore.Store
	// Prefix, when nonempty, namespaces the facility's file names inside
	// Store so several facilities can share one store.
	Prefix string
	// Frames is the FSSF frame count K used when deriving a FrameScheme
	// from Scheme; 0 picks the largest power of two ≤ 16 dividing F.
	Frames int
	// WorstCaseInsert makes a BSSF write every slice file on insert,
	// reproducing the paper's worst-case UC_I = F + 1 (Table 7).
	WorstCaseInsert bool
	// LSM selects the log-structured write path (DESIGN.md §13): a
	// WAL-backed memtable flushing into sealed segments of the configured
	// Kind, with tombstone deletes and background-free compaction.
	LSM bool
	// LSMMemtableOps is the flush trigger: the memtable seals into a
	// segment once it holds this many operations (entries + tombstones).
	// 0 means the default (256).
	LSMMemtableOps int
	// LSMCompactAfter is the compaction trigger: once a flush leaves this
	// many segments they are merged into one. 0 means the default (4);
	// values below 2 also get the default.
	LSMCompactAfter int
	// Shards, when ≥ 2, hash-partitions the OID space across that many
	// inner facilities, each a full instance of Kind under its own
	// shard.%02d store prefix with its own lock and health ladder
	// (DESIGN.md §16). 0 or 1 means unsharded. Composes with LSM: each
	// shard runs its own log-structured write path.
	Shards int
}

// weight is the element weight m the smart probe cap derives from: the
// frame design's for an FSSF that has one, the flat scheme's otherwise,
// 0 for NIX (which probes a single element).
func (c *Config) weight() int {
	switch {
	case c.Kind == KindNIX:
		return 0
	case c.FrameScheme != nil:
		return c.FrameScheme.M()
	case c.Scheme != nil:
		return c.Scheme.M()
	}
	return 0
}

// OpenOption mutates a Config — the functional-options form of the
// fields that are not per-facility essentials.
type OpenOption func(*Config)

// WithStore directs the facility's files to store.
func WithStore(store pagestore.Store) OpenOption {
	return func(c *Config) { c.Store = store }
}

// WithPrefix namespaces the facility's file names inside its store.
func WithPrefix(prefix string) OpenOption {
	return func(c *Config) { c.Prefix = prefix }
}

// WithFrames sets the FSSF frame count K used when deriving the frame
// design from Config.Scheme; K must divide F.
func WithFrames(k int) OpenOption {
	return func(c *Config) { c.Frames = k }
}

// WithWorstCaseInserts makes a BSSF write all F slice files per insert
// (the paper's Table 7 worst case).
func WithWorstCaseInserts() OpenOption {
	return func(c *Config) { c.WorstCaseInsert = true }
}

// WithLSM selects the log-structured write path: O(1) tombstone
// deletes and amortized insert cost, at the price of a per-segment
// read fan-out the planner accounts for.
func WithLSM() OpenOption {
	return func(c *Config) { c.LSM = true }
}

// WithLSMMemtableSize sets the flush trigger: the memtable seals into a
// segment once it holds n operations. Implies WithLSM.
func WithLSMMemtableSize(n int) OpenOption {
	return func(c *Config) { c.LSM = true; c.LSMMemtableOps = n }
}

// WithLSMCompactAfter sets the compaction trigger: a flush leaving n or
// more segments merges them into one. Implies WithLSM.
func WithLSMCompactAfter(n int) OpenOption {
	return func(c *Config) { c.LSM = true; c.LSMCompactAfter = n }
}

// WithShards hash-partitions the OID space across k inner facilities
// searched shard by shard (DESIGN.md §16). k ≤ 1 means unsharded.
func WithShards(k int) OpenOption {
	return func(c *Config) { c.Shards = k }
}

// Open builds (or reopens, when the store already holds its files) the
// facility cfg describes. It is the single construction entry point: the
// per-kind constructors have no other caller outside tests.
func Open(cfg Config, opts ...OpenOption) (AccessMethod, error) {
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return open(cfg)
}

// open is Open after option resolution; the composite indexes re-enter
// it for their segments and shards.
func open(cfg Config) (subFacility, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: open %s: Config.Source is required", cfg.Kind)
	}
	store := cfg.Store
	if cfg.Prefix != "" {
		if store == nil {
			store = pagestore.NewMemStore()
		}
		store = pagestore.Prefixed(store, cfg.Prefix)
	}
	if cfg.Shards > 1 {
		// The sharded facility re-enters open per shard (with Shards
		// cleared and a shard.%02d prefix layered onto this store), so
		// every kind — LSM included — composes underneath it.
		return newSharded(cfg, store)
	}
	if cfg.LSM {
		if cfg.Kind == KindFSSF && cfg.FrameScheme == nil {
			// Pin the derived frame design now so every segment (and the
			// file-name accounting for removal) uses the same split.
			fs, err := deriveFrameScheme(cfg.Scheme, cfg.Frames)
			if err != nil {
				return nil, err
			}
			cfg.FrameScheme = fs
		}
		if cfg.Kind == KindSSF || cfg.Kind == KindBSSF {
			if cfg.Scheme == nil {
				return nil, fmt.Errorf("core: open %s: a signature scheme is required", cfg.Kind)
			}
		}
		return newLSM(cfg, store)
	}
	switch cfg.Kind {
	case KindSSF:
		return NewSSF(cfg.Scheme, cfg.Source, store)
	case KindBSSF:
		var bopts []BSSFOption
		if cfg.WorstCaseInsert {
			bopts = append(bopts, WithWorstCaseInsert())
		}
		return NewBSSF(cfg.Scheme, cfg.Source, store, bopts...)
	case KindNIX:
		return NewNIX(cfg.Source, store)
	case KindFSSF:
		fs := cfg.FrameScheme
		if fs == nil {
			var err error
			fs, err = deriveFrameScheme(cfg.Scheme, cfg.Frames)
			if err != nil {
				return nil, err
			}
		}
		return NewFSSF(fs, cfg.Source, store)
	default:
		return nil, fmt.Errorf("core: open: unknown facility kind %d", int(cfg.Kind))
	}
}

// deriveFrameScheme turns a flat signature design (F, m) into a frame
// design (K, S = F/K, m) for FSSF. k = 0 picks the largest power of two
// ≤ 16 that divides F, so paper-style widths (256, 512) get K = 16.
func deriveFrameScheme(scheme *signature.Scheme, k int) (*signature.FrameScheme, error) {
	if scheme == nil {
		return nil, fmt.Errorf("core: open FSSF: a Scheme or FrameScheme is required")
	}
	f := scheme.F()
	if k == 0 {
		for k = 16; k > 1 && f%k != 0; k /= 2 {
		}
	}
	if k <= 0 || f%k != 0 {
		return nil, fmt.Errorf("core: open FSSF: frame count %d does not divide F=%d", k, f)
	}
	return signature.NewFrameScheme(k, f/k, scheme.M())
}

// InsertAll bulk-loads entries into am, using its BatchInserter fast path
// when the facility has one (everything Open returns does) and falling
// back to one-at-a-time inserts.
func InsertAll(am AccessMethod, entries []Entry) error {
	if bi, ok := am.(BatchInserter); ok {
		return bi.InsertBatch(entries)
	}
	for _, e := range entries {
		if err := am.Insert(e.OID, e.Elems); err != nil {
			return err
		}
	}
	return nil
}
