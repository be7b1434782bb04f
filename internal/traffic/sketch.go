// Package traffic learns the query workload so the serving tier can
// act on it: a count-min sketch estimates how often each warmable
// (source, params) key has been requested, and an exact top-K table
// tracks the heavy hitters worth pre-warming after a restart.
//
// The sketch is deliberately tiny and dependency-free: fixed-size
// uint32 count matrix, deterministic FNV-1a double hashing (the hash
// seeds are part of the format, so a persisted sketch keeps counting
// the same cells after a reboot), and a versioned, CRC-guarded binary
// codec where EVERY corruption mode decodes as a cold sketch —
// corruption costs warmth, never correctness.
package traffic

import (
	"hash/fnv"
	"sort"
	"sync"
)

// Sketch dimension defaults: 4 rows × 1024 counters = 16 KiB, which
// over-counts a key by more than ~2·N/1024 with probability ≤ e⁻⁴ for
// N total recordings — plenty for ranking pre-warm candidates.
const (
	DefaultWidth = 1024
	DefaultDepth = 4
	DefaultTopK  = 32
)

// Hard bounds the decoder enforces before allocating, so a corrupt or
// adversarial header cannot balloon memory.
const (
	maxWidth  = 1 << 20
	maxDepth  = 16
	maxTopK   = 1 << 16
	maxKeyLen = 4096
)

// KeyCount is one heavy hitter: a warm key and its (exact) count.
type KeyCount struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
}

// Sketch is a thread-safe query-frequency sketch: count-min counters
// for the long tail plus an exact count table for keys that ever
// entered the top K. Zero value is not usable; call New.
type Sketch struct {
	mu         sync.Mutex
	width      int
	depth      int
	topK       int
	counts     []uint32          // depth rows of width counters
	top        map[string]uint64 // exact counts for current heavy hitters
	recorded   uint64            // total Record calls
	decayEpoch uint64            // completed Decay passes (survives restarts)
}

// New returns an empty sketch with default dimensions keeping up to
// topK heavy hitters (topK <= 0 selects DefaultTopK).
func New(topK int) *Sketch {
	if topK <= 0 {
		topK = DefaultTopK
	}
	if topK > maxTopK {
		topK = maxTopK
	}
	return &Sketch{
		width:  DefaultWidth,
		depth:  DefaultDepth,
		topK:   topK,
		counts: make([]uint32, DefaultWidth*DefaultDepth),
		top:    make(map[string]uint64),
	}
}

// hashPair derives the two FNV-1a 64 halves used for double hashing.
// Deterministic across processes and architectures by construction —
// a reloaded sketch must keep addressing the same counters.
func hashPair(key string) (h1, h2 uint64) {
	f := fnv.New64a()
	f.Write([]byte(key))
	h := f.Sum64()
	h1 = h
	// Second hash: rehash with a one-byte salt so h2 is independent of
	// h1; force it odd so i*h2 walks the whole row.
	f.Write([]byte{0x9e})
	h2 = f.Sum64() | 1
	return h1, h2
}

// Record counts one observation of key.
func (s *Sketch) Record(key string) {
	if key == "" {
		return
	}
	h1, h2 := hashPair(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded++
	est := uint32(1<<32 - 1)
	for row := 0; row < s.depth; row++ {
		i := (h1 + uint64(row)*h2) % uint64(s.width)
		c := &s.counts[row*s.width+int(i)]
		if *c != 1<<32-1 { // saturating
			*c++
		}
		if *c < est {
			est = *c
		}
	}
	s.updateTopLocked(key, uint64(est))
}

// updateTopLocked keeps the exact heavy-hitter table: a key already
// tracked increments exactly; a new key enters when the table has
// room or its sketch estimate beats the current minimum.
func (s *Sketch) updateTopLocked(key string, est uint64) {
	if c, ok := s.top[key]; ok {
		s.top[key] = c + 1
		return
	}
	if len(s.top) < s.topK {
		s.top[key] = 1
		return
	}
	minKey, minCount := "", uint64(1<<63)
	for k, c := range s.top {
		if c < minCount || (c == minCount && k > minKey) {
			minKey, minCount = k, c
		}
	}
	if est > minCount {
		delete(s.top, minKey)
		// Seed with the sketch estimate: the exact history is lost, and
		// the estimate is the best (slightly optimistic) reconstruction.
		s.top[key] = est
	}
}

// Count returns the best available count for key: the exact value when
// key is a current heavy hitter (so Count and TopK can never disagree
// about the keys that matter), the count-min (over-)estimate for the
// long tail.
func (s *Sketch) Count(key string) uint64 {
	h1, h2 := hashPair(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.top[key]; ok {
		return c
	}
	est := uint32(1<<32 - 1)
	for row := 0; row < s.depth; row++ {
		i := (h1 + uint64(row)*h2) % uint64(s.width)
		if c := s.counts[row*s.width+int(i)]; c < est {
			est = c
		}
	}
	return uint64(est)
}

// Decay halves every count-min counter and every heavy-hitter count,
// dropping top entries that reach zero — the periodic aging pass that
// lets yesterday's hot keys fall out of the pre-warm pin set instead
// of pinning forever. Integer halving guarantees convergence: a key
// that stops being requested reaches zero after at most log2(count)+1
// passes. The completed pass count travels with the codec so a
// restored sketch keeps aging from where it left off.
func (s *Sketch) Decay() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.counts {
		s.counts[i] >>= 1
	}
	for k, c := range s.top {
		c >>= 1
		if c == 0 {
			delete(s.top, k)
		} else {
			s.top[k] = c
		}
	}
	s.decayEpoch++
}

// TopK returns the heavy hitters, highest count first (key ascending
// on ties, so the order — and everything pre-warm derives from it —
// is deterministic).
func (s *Sketch) TopK() []KeyCount {
	s.mu.Lock()
	out := make([]KeyCount, 0, len(s.top))
	for k, c := range s.top {
		out = append(out, KeyCount{Key: k, Count: c})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Stats is a sketch snapshot for status endpoints.
type Stats struct {
	Recorded uint64 `json:"recorded"`
	Tracked  int    `json:"tracked"`
	TopK     int    `json:"top_k"`
	Width    int    `json:"width"`
	Depth    int    `json:"depth"`
	// DecayEpoch counts completed Decay passes over the sketch's
	// lifetime, including passes run by previous processes.
	DecayEpoch uint64 `json:"decay_epoch"`
}

// Stats returns a snapshot of the sketch's shape and fill.
func (s *Sketch) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Recorded:   s.recorded,
		Tracked:    len(s.top),
		TopK:       s.topK,
		Width:      s.width,
		Depth:      s.depth,
		DecayEpoch: s.decayEpoch,
	}
}
