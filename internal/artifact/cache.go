// Package artifact implements the platform's generic two-tier
// artifact cache: a bounded in-memory LRU in front of an optional
// persisted disk tier, with single-flight computation on miss.
//
// The cache is the one tiering engine behind every precomputed
// artifact the BiPPR subsystem reuses across queries — reverse-push
// target indexes and recorded walk-endpoint sets — so the invariants
// that make those caches safe live in exactly one place:
//
//   - Single-flight: concurrent misses for one key share a single
//     computation (and a single disk probe); every waiter receives the
//     same value instance. A waiter whose computing peer fails retries
//     the computation itself rather than inheriting the peer's error.
//
//   - Corruption-as-miss: the disk tier can only ever cost time, never
//     correctness. An absent, truncated, bit-flipped, version-skewed,
//     or otherwise undecodable artifact is treated as a cache miss —
//     the value is recomputed and the artifact overwritten — and a
//     failed save only loses future reuse. Both are counted in
//     Stats.DiskErrors (absent files are ordinary cold misses and are
//     not).
//
//   - Key stability across restarts: Config.DiskKey must be a pure
//     function of the key's *content* (e.g. a structural graph
//     fingerprint plus the exact float bits of every parameter), never
//     of process state such as pointers, so a restarted process finds
//     the artifacts its predecessor wrote. The in-memory key K may
//     carry process-local identity (a graph pointer) as long as
//     DiskKey ignores it.
//
//   - Shared values: cached values are returned to many callers
//     concurrently and must be treated as immutable.
//
// Values may optionally be weighted (Config.Weight/WeightBudget): the
// LRU then also evicts while the total weight exceeds the budget,
// always keeping at least the most recently inserted entry — it was
// just paid for and is about to be used.
package artifact

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// Tier reports where a cached value came from.
type Tier int

const (
	// TierComputed: the caller paid for the computation itself.
	TierComputed Tier = iota
	// TierMemory: served from the in-memory LRU (or by riding a
	// concurrent caller's in-flight computation).
	TierMemory
	// TierDisk: deserialized from a persisted artifact — no
	// computation ran anywhere.
	TierDisk
)

// String names the tier for logs and tables.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "computed"
	}
}

// DiskTier is the persistence contract a tiered cache writes through,
// implemented by the platform's datastore (one instance per artifact
// kind). dir groups artifacts (a structural graph fingerprint) and
// key names one artifact within the group; both are filesystem-safe.
// Load returns an error wrapping fs.ErrNotExist when the artifact
// does not exist; callers treat any load error as a miss.
type DiskTier interface {
	Load(dir, key string) ([]byte, error)
	Save(dir, key string, data []byte) error
}

// Stats is a snapshot of a Cache's counters. Hits split by tier so
// operators can tell a restart-warm disk cache from a hot in-memory
// one.
type Stats struct {
	// MemoryHits counts lookups served by the LRU or by riding a
	// concurrent in-flight computation.
	MemoryHits int64 `json:"memory_hits"`
	// DiskHits counts lookups served by deserializing a persisted
	// artifact — the restart-warm path.
	DiskHits int64 `json:"disk_hits"`
	// Misses counts computations actually paid.
	Misses int64 `json:"misses"`
	// DiskWrites / DiskBytesWritten count persisted artifacts.
	DiskWrites       int64 `json:"disk_writes"`
	DiskBytesWritten int64 `json:"disk_bytes_written"`
	// DiskErrors counts failed loads of an existing artifact
	// (corruption, version skew, I/O errors) and failed encodes or
	// saves. Each one is absorbed as a miss or a skipped write, never
	// an error to the caller.
	DiskErrors int64 `json:"disk_errors"`
	// MemoryEntries is the LRU's current size.
	MemoryEntries int `json:"memory_entries"`
	// Weight is the total Config.Weight over resident entries (0 when
	// the cache is unweighted).
	Weight int64 `json:"weight,omitempty"`
}

// Config parameterizes a Cache. Capacity and the codec trio
// (Encode/Decode/DiskKey) are required when Disk is set; a nil Disk
// makes the cache memory-only and the codec unused.
type Config[K comparable, V any] struct {
	// Name labels the cache's metrics (`cache="<name>"` on every
	// series); empty defaults to "artifact". It is a metric label, so
	// it must match the Prometheus label-name-friendly conventions
	// callers document in API.md.
	Name string
	// Capacity bounds the memory LRU in entries; must be positive.
	Capacity int
	// Disk is the persistence tier; nil degrades to memory-only.
	Disk DiskTier
	// DiskKey maps a key to its artifact address. It must depend only
	// on restart-stable key content (see the package comment).
	DiskKey func(K) (dir, key string)
	// Encode serializes a value for the disk tier. It receives the
	// key so self-describing formats can embed the parameters the
	// value was computed under (which Decode then echoes back against
	// a future request).
	Encode func(K, V) ([]byte, error)
	// Decode parses an artifact back into a value. It receives the
	// requesting key so it can validate the artifact against the
	// request (parameter echo, node-count bounds) and reject a forged
	// or misplaced file as corrupt before trusting its length fields.
	Decode func(K, []byte) (V, error)
	// Weight sizes one value for WeightBudget-based eviction; nil
	// leaves the cache bounded by Capacity alone.
	Weight func(V) int64
	// WeightBudget caps the total Weight of resident entries (0 =
	// unlimited). Eviction keeps at least the most recent entry even
	// when it alone exceeds the budget.
	WeightBudget int64
}

// Cache is the generic two-tier cache. It is safe for concurrent use.
//
// Its counters are obs metrics owned by the instance and registered
// in a private registry (MetricsRegistry), so each cache instance
// reports its own numbers — Stats() snapshots and the Prometheus
// exposition read the same atomics.
type Cache[K comparable, V any] struct {
	cfg Config[K, V]

	mu       sync.Mutex
	order    *list.List // front = most recently used; values are *entry[K, V]
	entries  map[K]*list.Element
	inflight map[K]*inflightCall[V]
	weight   int64

	reg            *obs.Registry
	memHits        *obs.Counter
	diskHits       *obs.Counter
	misses         *obs.Counter
	diskWrites     *obs.Counter
	diskBytes      *obs.Counter
	diskErrors     *obs.Counter
	diskReadSecs   *obs.Histogram
	diskWriteSecs  *obs.Histogram
	computeSeconds *obs.Histogram
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// inflightCall is one in-progress computation; waiters block on done.
type inflightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache from cfg. It panics on a non-positive capacity
// or a disk tier without a complete codec — both are programming
// errors, not runtime conditions.
func New[K comparable, V any](cfg Config[K, V]) *Cache[K, V] {
	if cfg.Capacity <= 0 {
		panic("artifact: cache capacity must be positive")
	}
	if cfg.Disk != nil && (cfg.Encode == nil || cfg.Decode == nil || cfg.DiskKey == nil) {
		panic("artifact: disk tier requires Encode, Decode and DiskKey")
	}
	name := cfg.Name
	if name == "" {
		name = "artifact"
	}
	r := obs.NewRegistry()
	c := &Cache[K, V]{
		cfg:      cfg,
		order:    list.New(),
		entries:  make(map[K]*list.Element, cfg.Capacity),
		inflight: make(map[K]*inflightCall[V]),

		reg:            r,
		memHits:        r.Counter("cyclerank_artifact_cache_hits_total", "Cache lookups served without computing, by tier.", "cache", name, "tier", "memory"),
		diskHits:       r.Counter("cyclerank_artifact_cache_hits_total", "Cache lookups served without computing, by tier.", "cache", name, "tier", "disk"),
		misses:         r.Counter("cyclerank_artifact_cache_misses_total", "Computations actually paid.", "cache", name),
		diskWrites:     r.Counter("cyclerank_artifact_cache_disk_writes_total", "Artifacts persisted to the disk tier.", "cache", name),
		diskBytes:      r.Counter("cyclerank_artifact_cache_disk_written_bytes_total", "Bytes persisted to the disk tier.", "cache", name),
		diskErrors:     r.Counter("cyclerank_artifact_cache_disk_errors_total", "Failed loads of an existing artifact plus failed encodes/saves.", "cache", name),
		diskReadSecs:   r.Histogram("cyclerank_artifact_cache_disk_read_seconds", "Disk-tier load+decode latency (successful hits).", nil, "cache", name),
		diskWriteSecs:  r.Histogram("cyclerank_artifact_cache_disk_write_seconds", "Disk-tier encode+save latency (successful writes).", nil, "cache", name),
		computeSeconds: r.Histogram("cyclerank_artifact_cache_compute_seconds", "Miss computation latency (successful computes).", nil, "cache", name),
	}
	// Residency numbers live under the LRU mutex; sample them at
	// scrape time instead of mirroring them into atomics.
	r.GaugeFunc("cyclerank_artifact_cache_entries", "Entries resident in the memory LRU.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.order.Len())
	}, "cache", name)
	r.GaugeFunc("cyclerank_artifact_cache_weight", "Total weight of resident entries (0 when unweighted).", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.weight)
	}, "cache", name)
	return c
}

// MetricsRegistry returns the cache's private metrics registry, for
// merging into a scrape endpoint.
func (c *Cache[K, V]) MetricsRegistry() *obs.Registry { return c.reg }

// GetOrCompute returns the value for key, where it came from, and any
// error. On a miss in both tiers it runs compute — at most once per
// key across all concurrent callers; riders on an in-flight
// computation report TierMemory. Waiters honor their own ctx while
// blocked. The returned value is shared: callers must not mutate it.
func (c *Cache[K, V]) GetOrCompute(ctx context.Context, key K, compute func() (V, error)) (V, Tier, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.memHits.Inc()
			c.order.MoveToFront(el)
			val := el.Value.(*entry[K, V]).val
			c.mu.Unlock()
			return val, TierMemory, nil
		}
		if call, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return zero, TierComputed, fmt.Errorf("artifact: waiting for shared computation: %w", ctx.Err())
			}
			if call.err == nil {
				c.memHits.Inc()
				return call.val, TierMemory, nil
			}
			continue // peer failed; try computing ourselves
		}
		call := &inflightCall[V]{done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()

		// The disk probe and the computation both run under the same
		// single-flight slot, so concurrent misses share one disk read
		// or one computation.
		tier := TierComputed
		if val, ok := c.loadFromDisk(key); ok {
			call.val, tier = val, TierDisk
		} else {
			t0 := time.Now()
			call.val, call.err = compute()
			if call.err == nil {
				c.misses.Inc()
				c.computeSeconds.ObserveSince(t0)
				c.saveToDisk(key, call.val)
			}
		}
		// Retire the inflight entry and publish the result in one
		// critical section, so no concurrent caller can observe the key
		// as neither cached nor inflight and start a duplicate
		// computation.
		c.mu.Lock()
		delete(c.inflight, key)
		if call.err == nil {
			c.putLocked(key, call.val)
		}
		c.mu.Unlock()
		close(call.done)
		if call.err != nil {
			return zero, TierComputed, call.err
		}
		return call.val, tier, nil
	}
}

// Peek reports whether key is resident in the memory tier without
// touching LRU order, disk, or the hit counters.
func (c *Cache[K, V]) Peek(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// loadFromDisk probes the disk tier; any failure — absent file,
// truncation, checksum mismatch, version skew, or a mismatch against
// the requesting key — returns false and the caller computes.
func (c *Cache[K, V]) loadFromDisk(key K) (V, bool) {
	var zero V
	if c.cfg.Disk == nil {
		return zero, false
	}
	dir, name := c.cfg.DiskKey(key)
	t0 := time.Now()
	data, err := c.cfg.Disk.Load(dir, name)
	if err != nil {
		// Absent artifact = ordinary cold miss. Anything else (EACCES,
		// EIO) means the disk tier is sick — still a miss, but counted
		// so a dead tier is visible in the stats instead of
		// masquerading as an eternally cold cache.
		if !errors.Is(err, fs.ErrNotExist) {
			c.diskErrors.Inc()
		}
		return zero, false
	}
	val, err := c.cfg.Decode(key, data)
	if err != nil {
		c.diskErrors.Inc()
		return zero, false
	}
	c.diskReadSecs.ObserveSince(t0)
	c.diskHits.Inc()
	return val, true
}

// saveToDisk persists a freshly computed value, best-effort.
func (c *Cache[K, V]) saveToDisk(key K, val V) {
	if c.cfg.Disk == nil {
		return
	}
	t0 := time.Now()
	data, err := c.cfg.Encode(key, val)
	if err != nil {
		c.diskErrors.Inc()
		return
	}
	dir, name := c.cfg.DiskKey(key)
	if err := c.cfg.Disk.Save(dir, name, data); err != nil {
		c.diskErrors.Inc()
		return
	}
	c.diskWriteSecs.ObserveSince(t0)
	c.diskWrites.Inc()
	c.diskBytes.Add(int64(len(data)))
}

// putLocked inserts a value, evicting least-recently-used entries
// while the cache is over its entry capacity or its weight budget.
// Re-inserting an existing key refreshes its value. The caller must
// hold c.mu.
func (c *Cache[K, V]) putLocked(key K, val V) {
	var w int64
	if c.cfg.Weight != nil {
		w = c.cfg.Weight(val)
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		c.weight += w - e.weight
		e.val, e.weight = val, w
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, weight: w})
		c.weight += w
	}
	overBudget := func() bool {
		return c.cfg.WeightBudget > 0 && c.weight > c.cfg.WeightBudget
	}
	for (c.order.Len() > c.cfg.Capacity || overBudget()) && c.order.Len() > 1 {
		c.removeLocked(c.order.Back())
	}
}

// DropFunc removes every resident entry whose key satisfies match and
// returns how many it removed — how an owner retires the values
// derived from an input that no longer exists (a replaced graph)
// instead of waiting for them to age out. A computation still in
// flight is not interrupted: its value lands afterwards and leaves by
// ordinary LRU eviction.
func (c *Cache[K, V]) DropFunc(match func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); match(e.key) {
			c.removeLocked(el)
			dropped++
		}
		el = next
	}
	return dropped
}

// removeLocked unlinks one entry and gives its weight back. The
// caller must hold c.mu.
func (c *Cache[K, V]) removeLocked(el *list.Element) {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.entries, e.key)
	c.weight -= e.weight
}

// Stats returns a snapshot of the cache's counters — the same metric
// objects the Prometheus exposition renders, so the two views cannot
// disagree.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	size, weight := c.order.Len(), c.weight
	c.mu.Unlock()
	return Stats{
		MemoryHits:       c.memHits.Value(),
		DiskHits:         c.diskHits.Value(),
		Misses:           c.misses.Value(),
		DiskWrites:       c.diskWrites.Value(),
		DiskBytesWritten: c.diskBytes.Value(),
		DiskErrors:       c.diskErrors.Value(),
		MemoryEntries:    size,
		Weight:           weight,
	}
}
