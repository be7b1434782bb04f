package traffic

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"testing"
)

// TestSketchRecordAndCount checks the count-min estimate is exact for
// well-separated keys and that TopK ranks by count with deterministic
// tie order.
func TestSketchRecordAndCount(t *testing.T) {
	s := New(8)
	for i := 0; i < 50; i++ {
		s.Record("hot")
	}
	for i := 0; i < 5; i++ {
		s.Record("warm")
	}
	s.Record("cold")

	if got := s.Count("hot"); got < 50 {
		t.Errorf("Count(hot) = %d, want >= 50", got)
	}
	if got := s.Count("absent"); got != 0 {
		t.Errorf("Count(absent) = %d, want 0", got)
	}
	top := s.TopK()
	if len(top) != 3 {
		t.Fatalf("TopK len %d, want 3: %v", len(top), top)
	}
	if top[0].Key != "hot" || top[0].Count != 50 {
		t.Errorf("top[0] = %+v, want hot/50", top[0])
	}
	if top[1].Key != "warm" || top[2].Key != "cold" {
		t.Errorf("TopK order %v, want warm then cold", top)
	}

	st := s.Stats()
	if st.Recorded != 56 || st.Tracked != 3 || st.TopK != 8 {
		t.Errorf("Stats = %+v", st)
	}
	// Empty keys are ignored.
	s.Record("")
	if got := s.Stats().Recorded; got != 56 {
		t.Errorf("empty key counted: recorded %d", got)
	}
}

// TestSketchTopKEviction checks a newly hot key can displace the
// current minimum once the heavy-hitter table is full.
func TestSketchTopKEviction(t *testing.T) {
	s := New(2)
	for i := 0; i < 10; i++ {
		s.Record("a")
	}
	s.Record("b") // fills the table: {a:10, b:1}
	// "c" becomes hotter than "b"; it must evict it.
	for i := 0; i < 5; i++ {
		s.Record("c")
	}
	top := s.TopK()
	if len(top) != 2 || top[0].Key != "a" || top[1].Key != "c" {
		t.Fatalf("TopK after eviction = %v, want [a c]", top)
	}
}

// TestFrequencySketchConcurrentRecord hammers one sketch from many
// goroutines; run under -race this locks the sketch's thread safety,
// and the final tallies must be exact (Record never drops counts).
func TestFrequencySketchConcurrentRecord(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
	)
	s := New(16)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Record("shared")
				s.Record(fmt.Sprintf("own-%d", g))
				s.Count("shared")
				if i%100 == 0 {
					s.TopK()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := s.Stats().Recorded; got != 2*goroutines*perG {
		t.Errorf("recorded %d, want %d", got, 2*goroutines*perG)
	}
	if got := s.Count("shared"); got < goroutines*perG {
		t.Errorf("Count(shared) = %d, want >= %d", got, goroutines*perG)
	}
	counts := make(map[string]uint64)
	for _, kc := range s.TopK() {
		counts[kc.Key] = kc.Count
	}
	if counts["shared"] != goroutines*perG {
		t.Errorf("TopK shared = %d, want %d", counts["shared"], goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		key := fmt.Sprintf("own-%d", g)
		if counts[key] != perG {
			t.Errorf("TopK %s = %d, want %d", key, counts[key], perG)
		}
	}
}

// TestSketchCodecRoundTrip encodes a populated sketch and checks the
// decoded copy preserves counts, heavy hitters and the total.
func TestSketchCodecRoundTrip(t *testing.T) {
	s := New(4)
	for i := 0; i < 20; i++ {
		s.Record("alpha")
	}
	for i := 0; i < 7; i++ {
		s.Record("beta")
	}
	s.Record("γ|odd|key") // non-ASCII and separator bytes round-trip

	data := s.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g, w := got.Stats(), s.Stats(); g != w {
		t.Errorf("stats %+v != %+v", g, w)
	}
	for _, key := range []string{"alpha", "beta", "γ|odd|key", "never-seen"} {
		if g, w := got.Count(key), s.Count(key); g != w {
			t.Errorf("Count(%s) = %d after round trip, want %d", key, g, w)
		}
	}
	wantTop, gotTop := s.TopK(), got.TopK()
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopK len %d, want %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Errorf("TopK[%d] = %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}
	// Deterministic encoding: same state encodes to identical bytes.
	if string(s.Encode()) != string(data) {
		t.Error("Encode is not deterministic")
	}
}

// TestSketchCodecVersionMismatch checks an artifact of any other
// version — the retired v1 and v2 as much as a future one — is
// rejected with ErrSketchVersion and that Load masks it as cold.
func TestSketchCodecVersionMismatch(t *testing.T) {
	s := New(4)
	s.Record("x")
	for _, version := range []uint16{1, 2, 0x7FFF} {
		data := s.Encode()
		// Change the version field and re-seal the checksum so ONLY
		// the version differs.
		data[0], data[1] = byte(version), byte(version>>8)
		resealCRC(data)

		if _, err := Decode(data); !errors.Is(err, ErrSketchVersion) {
			t.Errorf("version %d: Decode error %v, want ErrSketchVersion", version, err)
		}
		cold, restored := Load(data, 4)
		if restored {
			t.Errorf("version %d: Load reported warm state", version)
		}
		if cold.Stats().Recorded != 0 {
			t.Errorf("version %d: Load did not return a cold sketch", version)
		}
	}
}

// TestSketchCodecCorruption walks the PR 3/5-style corruption matrix:
// truncation at every interesting boundary and a bit flip in every
// region must decode as an error — and Load must turn each into a
// cold, usable sketch.
func TestSketchCodecCorruption(t *testing.T) {
	s := New(4)
	// Six-byte keys hold the encoding at 16486 bytes, so the subtest
	// names below — byte offsets into it — stay comparable across
	// codec versions.
	for i := 0; i < 9; i++ {
		s.Record("keys-" + string(rune('a'+i)))
	}
	data := s.Encode()

	truncations := []int{0, 1, 3, 10, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, n := range truncations {
		t.Run(fmt.Sprintf("truncate-%d", n), func(t *testing.T) {
			if _, err := Decode(data[:n]); err == nil {
				t.Fatalf("Decode accepted %d-byte truncation", n)
			}
			cold, restored := Load(data[:n], 4)
			if restored || cold.Stats().Recorded != 0 {
				t.Error("Load of truncated data is not cold")
			}
		})
	}

	flips := []int{0, 2, 6, 14, len(data) / 2, len(data) - 2}
	for _, off := range flips {
		t.Run(fmt.Sprintf("bitflip-%d", off), func(t *testing.T) {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x40
			if _, err := Decode(bad); err == nil {
				t.Fatalf("Decode accepted bit flip at %d", off)
			}
			cold, restored := Load(bad, 4)
			if restored || cold.Stats().Recorded != 0 {
				t.Error("Load of flipped data is not cold")
			}
		})
	}

	// Implausible dimensions must be rejected even with a valid CRC.
	huge := append([]byte(nil), data...)
	huge[2], huge[3], huge[4], huge[5] = 0xFF, 0xFF, 0xFF, 0x7F // width
	resealCRC(huge)
	if _, err := Decode(huge); err == nil {
		t.Fatal("Decode accepted implausible width")
	}

	// Trailing garbage after a complete body fails the checksum.
	padded := append(append([]byte(nil), data...), 0xAB, 0xCD)
	if _, err := Decode(padded); err == nil {
		t.Fatal("Decode accepted trailing bytes")
	}

	// Empty/nil loads are cold, never an error.
	if cold, restored := Load(nil, 8); restored || cold == nil {
		t.Error("Load(nil) not cold")
	}
}

// resealCRC recomputes the trailing checksum after a test mutates the
// body, so the mutation — not the CRC — is what the decoder sees.
func resealCRC(data []byte) {
	body := data[:len(data)-4]
	sum := crc32.ChecksumIEEE(body)
	data[len(data)-4] = byte(sum)
	data[len(data)-3] = byte(sum >> 8)
	data[len(data)-2] = byte(sum >> 16)
	data[len(data)-1] = byte(sum >> 24)
}

// TestLoadRestoresWarmState checks the happy path Load: a persisted
// sketch keeps counting the same cells after reload.
func TestLoadRestoresWarmState(t *testing.T) {
	s := New(4)
	for i := 0; i < 12; i++ {
		s.Record("survivor")
	}
	warm, restored := Load(s.Encode(), 4)
	if !restored {
		t.Fatal("Load did not restore valid bytes")
	}
	warm.Record("survivor")
	if got := warm.Count("survivor"); got != 13 {
		t.Errorf("post-reload count %d, want 13 (cells not re-addressed)", got)
	}
}

// cmEstimate computes the raw count-min estimate for key, bypassing
// the heavy-hitter table — the pre-fix Count behaviour, kept here so
// tests can prove a collision actually inflated the sketch rows.
func cmEstimate(s *Sketch, key string) uint64 {
	h1, h2 := hashPair(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	est := uint32(1<<32 - 1)
	for row := 0; row < s.depth; row++ {
		i := (h1 + uint64(row)*h2) % uint64(s.width)
		if c := s.counts[row*s.width+int(i)]; c < est {
			est = c
		}
	}
	return uint64(est)
}

// TestCountAgreesWithTopK forces count-min collisions onto a heavy
// hitter and checks Count reports the exact top-table value, never the
// inflated sketch estimate — so Count and TopK can no longer disagree
// about the keys pre-warm pins.
func TestCountAgreesWithTopK(t *testing.T) {
	s := New(4)
	const exact = 10
	for i := 0; i < exact; i++ {
		s.Record("heavy-hitter")
	}
	// Flood distinct filler keys until some land in heavy-hitter's
	// cells in every row and the count-min estimate rises above the
	// exact count. 4 rows × 1024 counters fill fast; cap the flood so
	// a hash-function change fails loudly instead of spinning.
	flooded := 0
	for cmEstimate(s, "heavy-hitter") <= exact {
		s.Record(fmt.Sprintf("filler-%d", flooded))
		flooded++
		if flooded > 200_000 {
			t.Fatal("could not force a count-min collision; hash layout changed?")
		}
	}
	if got := s.Count("heavy-hitter"); got != exact {
		t.Errorf("Count = %d, want exact %d (cm estimate %d)",
			got, exact, cmEstimate(s, "heavy-hitter"))
	}
	var inTop uint64
	for _, kc := range s.TopK() {
		if kc.Key == "heavy-hitter" {
			inTop = kc.Count
		}
	}
	if inTop == 0 {
		t.Fatal("heavy-hitter fell out of TopK; raise its count")
	}
	if got := s.Count("heavy-hitter"); got != inTop {
		t.Errorf("Count (%d) and TopK (%d) disagree", got, inTop)
	}
}

// TestSketchDecay checks one Decay pass halves both tiers, that keys
// reaching zero leave the heavy-hitter table, and that repeated passes
// converge every count to zero.
func TestSketchDecay(t *testing.T) {
	s := New(4)
	for i := 0; i < 9; i++ {
		s.Record("hot") // odd count: halving must floor, 9 → 4
	}
	s.Record("once")

	s.Decay()
	if got := s.Count("hot"); got != 4 {
		t.Errorf("Count(hot) after decay = %d, want 4", got)
	}
	if got := s.Count("once"); got != 0 {
		t.Errorf("Count(once) after decay = %d, want 0", got)
	}
	top := s.TopK()
	if len(top) != 1 || top[0].Key != "hot" {
		t.Errorf("TopK after decay = %v, want only hot (once dropped at zero)", top)
	}
	if got := s.Stats().DecayEpoch; got != 1 {
		t.Errorf("DecayEpoch = %d, want 1", got)
	}

	// log2(4)+1 = 3 more passes empty the sketch entirely.
	for i := 0; i < 3; i++ {
		s.Decay()
	}
	if got := s.Count("hot"); got != 0 {
		t.Errorf("Count(hot) after full decay = %d, want 0", got)
	}
	if got := len(s.TopK()); got != 0 {
		t.Errorf("TopK after full decay has %d entries, want 0", got)
	}
	if got := s.Stats().DecayEpoch; got != 4 {
		t.Errorf("DecayEpoch = %d, want 4", got)
	}
	// Recorded is a lifetime total; decay must not rewrite history.
	if got := s.Stats().Recorded; got != 10 {
		t.Errorf("Recorded after decay = %d, want 10", got)
	}
}

// TestSketchCodecCarriesDecay checks the decay epoch round-trips
// through Encode→Decode and encoding stays deterministic.
func TestSketchCodecCarriesDecay(t *testing.T) {
	s := New(4)
	for i := 0; i < 40; i++ {
		s.Record("k")
	}
	s.Decay()
	s.Decay()

	data := s.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g, w := got.Stats(), s.Stats(); g != w {
		t.Errorf("stats %+v != %+v", g, w)
	}
	if g := got.Stats().DecayEpoch; g != 2 {
		t.Errorf("decoded DecayEpoch = %d, want 2", g)
	}
	if string(s.Encode()) != string(data) {
		t.Error("Encode is not deterministic")
	}
}

// TestWarmKeyRoundTrip checks both key kinds survive String→Parse with
// exact float bits, and that hostile labels are escaped.
func TestWarmKeyRoundTrip(t *testing.T) {
	keys := []WarmKey{
		{Kind: KindIndex, Dataset: "enwiki-2018", Node: "Freddie Mercury", Alpha: 0.85, RMax: 1e-4},
		{Kind: KindIndex, Dataset: "d|s", Node: "n|o|de", Alpha: 0.3, RMax: math.Nextafter(1e-6, 1)},
		{Kind: KindEndpoints, Dataset: "amazon", Node: "B000", Alpha: 0.85, Seed: -42, MaxSteps: 100, Walks: 10000},
		{Kind: KindEndpoints, Dataset: "ds", Node: "π", Alpha: 0.15, Seed: 1 << 40, MaxSteps: 1, Walks: 1},
	}
	for _, k := range keys {
		enc := k.String()
		got, err := ParseWarmKey(enc)
		if err != nil {
			t.Errorf("ParseWarmKey(%q): %v", enc, err)
			continue
		}
		if got != k {
			t.Errorf("round trip %q: got %+v, want %+v", enc, got, k)
		}
	}

	bad := []string{
		"",
		"idx",
		"idx|ds",
		"idx|ds|node",                      // missing params
		"idx|ds|node|a0|r0|extra",          // too many params
		"idx|ds|node|x0|r0",                // wrong prefix
		"idx|ds|node|aZZZZ|r0",             // bad hex
		"ep|ds|node|a0|s1|m2",              // ep wants 4 params
		"ep|ds|node|a0|sX|m2|w3",           // bad int
		"zz|ds|node|a0|r0",                 // unknown kind
		"idx|%zz|node|a0|r0",               // bad escape
		"ep|ds|node|a0|s1|m2|w3|tail-junk", // trailing field
	}
	for _, s := range bad {
		if _, err := ParseWarmKey(s); err == nil {
			t.Errorf("ParseWarmKey(%q) accepted", s)
		}
	}
}
