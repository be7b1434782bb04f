package bippr

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/cyclerank/cyclerank-go/internal/artifact"
	"github.com/cyclerank/cyclerank-go/internal/graph"
	"github.com/cyclerank/cyclerank-go/internal/obs"
)

// Tier re-exports the generic artifact tier: where a cached value
// came from. TierComputed means the caller paid for the work itself,
// TierMemory an LRU hit (or a ride on a concurrent caller's in-flight
// computation), TierDisk a deserialized persisted artifact.
type Tier = artifact.Tier

const (
	TierComputed = artifact.TierComputed
	TierMemory   = artifact.TierMemory
	TierDisk     = artifact.TierDisk
)

// StoreStats is a snapshot of an IndexStore's counters. Hits split by
// tier so operators can tell a restart-warm disk cache from a hot
// in-memory one.
type StoreStats struct {
	// MemoryHits counts queries served by the LRU or by riding a
	// concurrent in-flight computation.
	MemoryHits int64 `json:"memory_hits"`
	// DiskHits counts queries served by deserializing a persisted
	// index — the restart-warm path.
	DiskHits int64 `json:"disk_hits"`
	// Misses counts reverse pushes actually paid.
	Misses int64 `json:"misses"`
	// DiskWrites / DiskBytesWritten count persisted artifacts.
	DiskWrites       int64 `json:"disk_writes"`
	DiskBytesWritten int64 `json:"disk_bytes_written"`
	// DiskErrors counts failed loads of an existing artifact
	// (corruption, version skew) and failed saves. Each one is
	// absorbed as a miss or a skipped write, never an error to the
	// query.
	DiskErrors int64 `json:"disk_errors"`
	// MemoryEntries is the LRU's current size.
	MemoryEntries int `json:"memory_entries"`
}

// storeStatsFrom maps the generic cache counters onto the index
// store's stats shape.
func storeStatsFrom(s artifact.Stats) StoreStats {
	return StoreStats{
		MemoryHits:       s.MemoryHits,
		DiskHits:         s.DiskHits,
		Misses:           s.Misses,
		DiskWrites:       s.DiskWrites,
		DiskBytesWritten: s.DiskBytesWritten,
		DiskErrors:       s.DiskErrors,
		MemoryEntries:    s.MemoryEntries,
	}
}

// IndexStore resolves (graph, target, alpha, rmax) to a reverse-push
// target index, computing on miss with single-flight deduplication.
// Implementations must be safe for concurrent use, and the returned
// index is shared: callers must not mutate it.
type IndexStore interface {
	// GetOrCompute returns the index, where it came from, and any
	// error. compute is invoked at most once per key across all
	// concurrent callers.
	GetOrCompute(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64,
		compute func() (*TargetIndex, error)) (*TargetIndex, Tier, error)
	// Stats returns a snapshot of the store's counters.
	Stats() StoreStats
}

// DiskTier is the persistence contract the tiered store writes
// through, implemented by the platform's datastore. graphFP is a
// structural graph fingerprint (see graph.Fingerprint) and key a
// filesystem-safe index key; Load returns an error satisfying
// os.IsNotExist semantics (any error is treated as a miss) when the
// artifact does not exist.
type DiskTier interface {
	LoadIndex(graphFP, key string) ([]byte, error)
	SaveIndex(graphFP, key string, data []byte) error
}

// indexDisk adapts the index-specific DiskTier onto the generic
// artifact.DiskTier the shared cache machinery speaks.
type indexDisk struct{ d DiskTier }

func (a indexDisk) Load(dir, key string) ([]byte, error) { return a.d.LoadIndex(dir, key) }
func (a indexDisk) Save(dir, key string, data []byte) error {
	return a.d.SaveIndex(dir, key, data)
}

// indexKey identifies one target index. The graph pointer stands in
// for the dataset name: the scheduler caches one immutable *Graph per
// dataset, so pointer identity tracks dataset identity — and a
// re-uploaded dataset arrives as a new pointer, naturally invalidating
// every entry of the old graph (they age out of the LRU). The disk
// address derived from the key (see indexConfig) replaces the pointer
// with the structural fingerprint, so persisted artifacts stay valid
// across restarts and across structurally identical re-uploads.
type indexKey struct {
	g      *graph.Graph
	target graph.NodeID
	alpha  float64
	rmax   float64
}

// indexConfig parameterizes the generic artifact cache for target
// indexes: fingerprint+parameter disk addressing, the versioned+CRC
// index codec, and decode-time validation of the artifact against the
// requesting key (size the decode by the requesting graph so a forged
// or damaged header cannot trigger a huge allocation, then reject a
// hand-edited or misplaced artifact whose echoed parameters differ).
func indexConfig(capacity int, disk DiskTier) artifact.Config[indexKey, *TargetIndex] {
	cfg := artifact.Config[indexKey, *TargetIndex]{Name: "target_index", Capacity: capacity}
	if disk == nil {
		return cfg
	}
	cfg.Disk = indexDisk{disk}
	cfg.DiskKey = func(k indexKey) (string, string) {
		return sharedFingerprints.get(k.g), IndexFileKey(k.target, k.alpha, k.rmax)
	}
	cfg.Encode = func(_ indexKey, idx *TargetIndex) ([]byte, error) { return EncodeIndex(idx) }
	cfg.Decode = func(k indexKey, data []byte) (*TargetIndex, error) {
		idx, err := DecodeIndexSized(data, k.g.NumNodes())
		if err != nil {
			return nil, err
		}
		if idx.Target != k.target || idx.Alpha != k.alpha || idx.RMax != k.rmax {
			return nil, fmt.Errorf("%w: artifact parameters do not match the request", ErrIndexCorrupt)
		}
		return idx, nil
	}
	return cfg
}

// MemoryStore is the single-tier IndexStore: the LRU index cache that
// predates persistence, unchanged in behavior. It backs estimators
// for one-shot CLI runs and tests, where disk round-trips buy
// nothing.
type MemoryStore struct {
	cache *artifact.Cache[indexKey, *TargetIndex]
}

// NewMemoryStore returns a memory-only IndexStore holding up to
// capacity indexes (capacity <= 0 selects DefaultCacheSize).
func NewMemoryStore(capacity int) *MemoryStore {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &MemoryStore{cache: artifact.New(indexConfig(capacity, nil))}
}

// GetOrCompute implements IndexStore.
func (m *MemoryStore) GetOrCompute(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64,
	compute func() (*TargetIndex, error)) (*TargetIndex, Tier, error) {
	return m.cache.GetOrCompute(ctx, indexKey{g: g, target: target, alpha: alpha, rmax: rmax}, compute)
}

// Stats implements IndexStore.
func (m *MemoryStore) Stats() StoreStats {
	return storeStatsFrom(m.cache.Stats())
}

// MetricsRegistry returns the store's cache metrics registry.
func (m *MemoryStore) MetricsRegistry() *obs.Registry { return m.cache.MetricsRegistry() }

// TieredStore is the two-tier IndexStore: the memory LRU in front of
// persisted index artifacts, built on the generic artifact cache. A
// miss in both tiers runs the reverse push once (single-flight across
// tiers and callers) and populates the LRU; the artifact is persisted
// on the key's second touch (see package artifact), so a one-off
// target costs no write and no disk, while a restarted server finds
// every target repeated while resident on disk and pays
// deserialization, not recomputation.
//
// Disk failures never fail a query: an unreadable, corrupt, or
// version-skewed artifact is a miss (recompute and overwrite), and a
// failed save only loses future reuse. Both are counted in
// StoreStats.DiskErrors.
type TieredStore struct {
	cache *artifact.Cache[indexKey, *TargetIndex]
}

// maxMemoizedFingerprints bounds a fingerprint memo. Live graphs
// number at most one per dataset; past this size the map mostly holds
// dead pointers, and dropping it wholesale both frees them and lets
// the handful of live entries re-memoize on next use.
const maxMemoizedFingerprints = 64

// fingerprintMemo memoizes graph.Fingerprint per immutable graph: the
// hash is O(N+M) and the pointer is the scheduler's dataset identity.
// The map is bounded (maxMemoizedFingerprints) so it cannot pin
// retired graphs — e.g. pre-re-upload versions of a dataset — in
// memory forever.
type fingerprintMemo struct {
	mu  sync.Mutex
	fps map[*graph.Graph]string
}

func newFingerprintMemo() *fingerprintMemo {
	return &fingerprintMemo{fps: make(map[*graph.Graph]string)}
}

// sharedFingerprints is the package-wide memo every fingerprint-keyed
// cache (the tiered index store, the endpoint cache) resolves through:
// a fingerprint is a pure function of an immutable graph, so one
// bounded memo is canonical — an estimator whose index store and
// endpoint cache both touch a graph hashes its CSR once, not once per
// cache.
var sharedFingerprints = newFingerprintMemo()

// get resolves the memoized structural fingerprint of g.
func (m *fingerprintMemo) get(g *graph.Graph) string {
	m.mu.Lock()
	fp, ok := m.fps[g]
	m.mu.Unlock()
	if ok {
		return fp
	}
	// Hash outside the lock: the CSR walk is O(N+M) and must not
	// stall unrelated graphs' queries. Concurrent first-touchers of
	// one graph may compute it twice; the results are identical.
	fp = graph.Fingerprint(g)
	m.mu.Lock()
	if len(m.fps) >= maxMemoizedFingerprints {
		clear(m.fps)
	}
	m.fps[g] = fp
	m.mu.Unlock()
	return fp
}

// NewTieredStore builds a two-tier store: an LRU of capacity indexes
// (<= 0 selects DefaultCacheSize) over the given disk tier. A nil
// disk degrades to memory-only behavior.
func NewTieredStore(capacity int, disk DiskTier) *TieredStore {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &TieredStore{cache: artifact.New(indexConfig(capacity, disk))}
}

// IndexFileKey is the filesystem-safe artifact key of one target
// index: the target id plus the exact float bits of alpha and rmax,
// so distinct parameters can never collide.
func IndexFileKey(target graph.NodeID, alpha, rmax float64) string {
	return fmt.Sprintf("t%d-a%016x-r%016x", target, math.Float64bits(alpha), math.Float64bits(rmax))
}

// GetOrCompute implements IndexStore: memory LRU, then disk, then the
// reverse push. The disk probe and the push both run under the same
// single-flight slot, so concurrent misses share one disk read or one
// computation.
func (t *TieredStore) GetOrCompute(ctx context.Context, g *graph.Graph, target graph.NodeID, alpha, rmax float64,
	compute func() (*TargetIndex, error)) (*TargetIndex, Tier, error) {
	return t.cache.GetOrCompute(ctx, indexKey{g: g, target: target, alpha: alpha, rmax: rmax}, compute)
}

// Stats implements IndexStore. Misses counts successful computations.
func (t *TieredStore) Stats() StoreStats {
	return storeStatsFrom(t.cache.Stats())
}

// MetricsRegistry returns the store's cache metrics registry.
func (t *TieredStore) MetricsRegistry() *obs.Registry { return t.cache.MetricsRegistry() }

// StoreMetricsRegistry extracts the metrics registry of an IndexStore
// when its implementation exports one (both package stores do) — how
// serving layers merge a store they only hold by interface into a
// scrape endpoint. Returns nil otherwise.
func StoreMetricsRegistry(s IndexStore) *obs.Registry {
	if m, ok := s.(interface{ MetricsRegistry() *obs.Registry }); ok {
		return m.MetricsRegistry()
	}
	return nil
}
