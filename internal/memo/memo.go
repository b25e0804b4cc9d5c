// Package memo provides a content-addressed, concurrency-safe
// memoization store for the evaluation pipeline.
//
// Keys are canonical strings of the form "kind:part|part|...", where the
// kind names the memoized computation ("systolic", "sram", "profiles",
// "sched", "eval", "screen", "thermal") and the parts are exact
// renderings of every input the computation depends on (content
// fingerprints for structured inputs, shortest round-trip decimals for
// floats). "sched" keys, which are never persisted, instead carry their
// inputs as raw bytes (see core's schedKey). Two keys are equal exactly
// when the memoized function would produce the same value, so a store
// can be shared by every evaluator, sweep worker and annealing chain in
// a process without changing any result.
//
// GetOrCompute deduplicates in-flight computations (single-flight): when
// several chains race to evaluate the same key, one computes and the
// rest wait for its value. Errors are never cached — a failed
// computation is retried by the next caller, which keeps fault-injection
// and quarantine semantics at the evaluator layer.
//
// A store may be backed by a Disk (see disk.go), which persists selected
// records as versioned JSONL segments so later processes warm-start.
package memo

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Key joins a kind and its canonical parts into a store key. The kind
// must not contain ':'; parts are joined with '|'.
func Key(kind string, parts ...string) string {
	return kind + ":" + strings.Join(parts, "|")
}

// Kind returns the kind prefix of a store key (everything before the
// first ':', or the whole key if it has none).
func Kind(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		return key[:i]
	}
	return key
}

// Fnum renders a float64 as its shortest decimal that round-trips to the
// same bits, so float-valued key parts are exact (quantize first if a
// key should deliberately collapse nearby geometries).
func Fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Hash returns a 16-hex-digit FNV-1a fingerprint of the canonical "%+v"
// rendering of vals. It is deterministic across processes for values
// whose formatting is deterministic: structs, slices and scalars qualify
// (fields and elements print in declaration order); maps do not and must
// not be passed.
func Hash(vals ...any) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%+v\x1f", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// KindStats counts store traffic for one key kind.
type KindStats struct {
	// Hits counts lookups served from the in-memory map.
	Hits int64
	// Misses counts lookups that ran the compute function.
	Misses int64
	// Deduped counts lookups that waited on another goroutine's
	// in-flight computation of the same key instead of recomputing.
	Deduped int64
	// Loaded counts records seeded from a persistent segment on open.
	Loaded int64
	// Persisted counts records appended to the persistent segment.
	Persisted int64
}

// Stats is a point-in-time snapshot of store traffic, overall and per
// kind.
type Stats struct {
	// KindStats aggregates the totals across all kinds.
	KindStats
	// Kinds breaks the totals down by key kind.
	Kinds map[string]KindStats
}

// HitRate returns Hits / (Hits + Misses), or 0 when the store saw no
// lookups. Deduped waits count as neither.
func (s KindStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String renders the snapshot compactly, kinds in sorted order.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hits=%d misses=%d deduped=%d loaded=%d persisted=%d",
		s.Hits, s.Misses, s.Deduped, s.Loaded, s.Persisted)
	kinds := make([]string, 0, len(s.Kinds))
	for k := range s.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ks := s.Kinds[k]
		fmt.Fprintf(&b, " %s=%d/%d", k, ks.Hits, ks.Hits+ks.Misses)
	}
	return b.String()
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

// Store is a concurrency-safe content-addressed memoization map with
// single-flight computation and per-kind statistics. The zero value is
// not usable; call NewStore.
type Store struct {
	mu       sync.Mutex
	m        map[string]entry
	inflight map[string]*call
	stats    map[string]*KindStats
	disk     *Disk
}

// entry is a cached value with its kind's counters, so a hit counts
// itself without re-parsing the key.
type entry struct {
	val any
	ks  *KindStats
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		m:        make(map[string]entry),
		inflight: make(map[string]*call),
		stats:    make(map[string]*KindStats),
	}
}

func (s *Store) kindStats(key string) *KindStats {
	k := Kind(key)
	ks := s.stats[k]
	if ks == nil {
		ks = &KindStats{}
		s.stats[k] = ks
	}
	return ks
}

// Get returns the cached value for key, if present. It counts as a hit
// when found and is silent otherwise (a Get probe that falls through to
// GetOrCompute must not double-count the miss).
func (s *Store) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.m[key]
	if ok {
		ent.ks.Hits++
	}
	return ent.val, ok
}

// Put stores value under key unconditionally, replacing any previous
// value (used to upgrade a compact record to a full one).
func (s *Store) Put(key string, value any) {
	s.mu.Lock()
	s.m[key] = entry{value, s.kindStats(key)}
	s.mu.Unlock()
}

// Seed stores value under key without touching hit/miss counters and
// counts it as loaded. Existing entries win (a live value is never
// replaced by a persisted one).
func (s *Store) Seed(key string, value any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return
	}
	ks := s.kindStats(key)
	s.m[key] = entry{value, ks}
	ks.Loaded++
}

// ErrPeerPanicked is returned to goroutines that were waiting on an
// in-flight computation whose computing goroutine panicked; the panic
// itself propagates in the computing goroutine (so its owner can
// attribute it), while waiters fail with this error and may retry.
var ErrPeerPanicked = errors.New("memo: shared computation panicked")

// GetOrCompute returns the value for key, computing it with fn on a
// miss. Concurrent callers of the same key share one computation: the
// first runs fn, the rest block until it finishes. The hit result
// reports whether the value was served from cache (including waiting on
// an in-flight computation). Errors from fn are returned to every waiter
// and never cached; a panicking fn propagates its panic to the computing
// caller and fails waiters with ErrPeerPanicked.
func (s *Store) GetOrCompute(key string, fn func() (any, error)) (val any, hit bool, err error) {
	s.mu.Lock()
	if ent, ok := s.m[key]; ok {
		ent.ks.Hits++
		s.mu.Unlock()
		return ent.val, true, nil
	}
	ks := s.kindStats(key)
	if c, ok := s.inflight[key]; ok {
		ks.Deduped++
		s.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	ks.Misses++
	s.mu.Unlock()

	finished := false
	defer func() {
		if !finished && c.err == nil {
			c.err = ErrPeerPanicked
		}
		s.mu.Lock()
		delete(s.inflight, key)
		if finished && c.err == nil {
			s.m[key] = entry{c.val, ks}
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, false, c.err
}

// Persist appends a pre-encoded record for key to the attached disk
// segment, if any. It is a no-op on a purely in-memory store.
func (s *Store) Persist(key string, raw []byte) error {
	s.mu.Lock()
	d := s.disk
	if d != nil {
		s.kindStats(key).Persisted++
	}
	s.mu.Unlock()
	if d == nil {
		return nil
	}
	return d.Append(key, raw)
}

// AttachDisk binds a disk segment writer to the store; subsequent
// Persist calls append to it. Passing nil detaches.
func (s *Store) AttachDisk(d *Disk) {
	s.mu.Lock()
	s.disk = d
	s.mu.Unlock()
}

// HasDisk reports whether a persistent segment is attached, so callers
// can skip encoding records that would go nowhere.
func (s *Store) HasDisk() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk != nil
}

// Range calls fn for every cached entry whose key starts with prefix,
// until fn returns false. The iteration order is unspecified (callers
// needing a canonical order must impose one on what they collect). The
// matching entries are snapshotted under the lock and fn runs outside
// it, so fn may call back into the store; values written after the
// snapshot are not visited. Entries seeded from disk are visited like
// those computed live.
func (s *Store) Range(prefix string, fn func(key string, v any) bool) {
	s.mu.Lock()
	type kv struct {
		k string
		v any
	}
	var snap []kv
	for k, ent := range s.m {
		if strings.HasPrefix(k, prefix) {
			snap = append(snap, kv{k, ent.val})
		}
	}
	s.mu.Unlock()
	for _, e := range snap {
		if !fn(e.k, e.v) {
			return
		}
	}
}

// Len returns the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{Kinds: make(map[string]KindStats, len(s.stats))}
	for k, ks := range s.stats {
		if *ks == (KindStats{}) {
			continue // a kind only Put has seen: no traffic to report
		}
		out.Kinds[k] = *ks
		out.Hits += ks.Hits
		out.Misses += ks.Misses
		out.Deduped += ks.Deduped
		out.Loaded += ks.Loaded
		out.Persisted += ks.Persisted
	}
	return out
}
