package kvcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newTestStore(t *testing.T, cfg StoreConfig) (*sim.Simulation, *Store) {
	t.Helper()
	s := sim.New(1)
	mem := dram.New(s, dram.DefaultConfig())
	return s, NewStore(s, mem, cfg)
}

// storeModes are the two directory designs every table test covers.
var storeModes = []struct {
	name   string
	cuckoo bool
}{{"set-assoc", false}, {"cuckoo", true}}

// storeGet runs one Get to completion and returns (hit, copied value).
func storeGet(s *sim.Simulation, st *Store, key []byte) (bool, []byte) {
	var hit bool
	var got []byte
	op := &StoreOp{Done: func(_ *StoreOp, ok bool, val []byte) {
		hit = ok
		got = append([]byte(nil), val...)
	}}
	st.Get(key, op)
	s.RunUntil(s.Now() + sim.Millisecond)
	return hit, got
}

// storePut runs one Put to completion and returns (ok, evicted).
func storePut(s *sim.Simulation, st *Store, key, val []byte) (bool, bool) {
	var ok, evicted bool
	op := &StoreOp{Done: func(o *StoreOp, k bool, _ []byte) {
		ok, evicted = k, o.Evicted
	}}
	st.Put(key, val, op)
	s.RunUntil(s.Now() + sim.Millisecond)
	return ok, evicted
}

func TestStorePutGet(t *testing.T) {
	for _, m := range storeModes {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultStoreConfig()
			cfg.Cuckoo = m.cuckoo
			s, st := newTestStore(t, cfg)
			key, val := []byte("hello"), []byte("world")

			if ok, _ := storePut(s, st, key, val); !ok {
				t.Fatal("Put failed")
			}
			hit, got := storeGet(s, st, key)
			if !hit || !bytes.Equal(got, val) {
				t.Fatalf("Get: hit=%v val=%q, want hit=true val=%q", hit, got, val)
			}
			if st.Stats().Hits.Value() != 1 || st.Stats().Puts.Value() != 1 {
				t.Fatalf("stats: hits=%d puts=%d", st.Stats().Hits.Value(), st.Stats().Puts.Value())
			}
			if used, _ := st.Occupancy(); used != 1 {
				t.Fatalf("occupancy = %d, want 1", used)
			}
		})
	}
}

func TestStoreOverwriteInPlace(t *testing.T) {
	for _, m := range storeModes {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultStoreConfig()
			cfg.Cuckoo = m.cuckoo
			s, st := newTestStore(t, cfg)
			key := []byte("k")
			storePut(s, st, key, []byte("v1"))
			storePut(s, st, key, []byte("v2"))
			hit, got := storeGet(s, st, key)
			if !hit || !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("overwrite: hit=%v val=%q", hit, got)
			}
			if used, _ := st.Occupancy(); used != 1 {
				t.Fatalf("occupancy = %d after overwrite, want 1", used)
			}
		})
	}
}

// TestStoreRandomOpsProperty drives a random Put/Get sequence through a
// pressured directory in both modes, issuing small bursts so DRAM
// completions (and cuckoo relocation chains) interleave. Afterwards
// every readable key must return the value of its last accepted Put,
// and Occupancy must count exactly the readable keys.
func TestStoreRandomOpsProperty(t *testing.T) {
	for _, m := range storeModes {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", m.name, seed), func(t *testing.T) {
				cfg := StoreConfig{Sets: 16, Ways: 2, SlotBytes: 64, Cuckoo: m.cuckoo, CuckooKicks: 4}
				s, st := newTestStore(t, cfg)
				rng := rand.New(rand.NewSource(seed))
				const nkeys = 96
				key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
				latest := make(map[int][]byte) // value of each key's last Put to complete
				for op := 0; op < 600; op++ {
					i := rng.Intn(nkeys)
					if rng.Intn(10) < 6 {
						val := []byte(fmt.Sprintf("v%d-%d", i, op))
						st.Put(key(i), val, &StoreOp{Done: func(_ *StoreOp, ok bool, _ []byte) {
							if ok {
								latest[i] = val
							}
						}})
					} else {
						st.Get(key(i), &StoreOp{Done: func(*StoreOp, bool, []byte) {}})
					}
					if rng.Intn(4) == 0 {
						s.RunUntil(s.Now() + sim.Millisecond)
					}
				}
				s.RunUntil(s.Now() + sim.Millisecond)
				readable := 0
				for i := 0; i < nkeys; i++ {
					hit, got := storeGet(s, st, key(i))
					if !hit {
						continue
					}
					readable++
					if !bytes.Equal(got, latest[i]) {
						t.Fatalf("key %d returned %q, want %q", i, got, latest[i])
					}
				}
				if used, _ := st.Occupancy(); used != readable {
					t.Fatalf("occupancy %d, but %d keys readable", used, readable)
				}
				if st.Stats().Evictions.Value() == 0 {
					t.Fatal("geometry never evicted; not pressured")
				}
				if m.cuckoo && st.Stats().CuckooKicks.Value() == 0 {
					t.Fatal("cuckoo directory never relocated; chains untested")
				}
			})
		}
	}
}

func TestStoreMissAbsent(t *testing.T) {
	s, st := newTestStore(t, DefaultStoreConfig())
	hit, _ := storeGet(s, st, []byte("nope"))
	if hit {
		t.Fatal("absent key hit")
	}
	if st.Stats().Misses.Value() != 1 {
		t.Fatalf("misses = %d, want 1", st.Stats().Misses.Value())
	}
}

func TestStoreKeyAliasSafe(t *testing.T) {
	// The store must not retain the caller's key buffer across its async
	// DRAM transaction: mutate the buffer right after Get returns.
	s, st := newTestStore(t, DefaultStoreConfig())
	key := []byte("stable-key")
	if ok, _ := storePut(s, st, key, []byte("v")); !ok {
		t.Fatal("Put failed")
	}
	buf := append([]byte(nil), key...)
	var hit bool
	op := &StoreOp{Done: func(_ *StoreOp, ok bool, _ []byte) { hit = ok }}
	st.Get(buf, op)
	for i := range buf {
		buf[i] = 0xFF // simulate the datagram buffer being recycled
	}
	s.RunUntil(s.Now() + sim.Millisecond)
	if !hit {
		t.Fatal("Get must compare against its own key copy, not the mutated caller buffer")
	}
}

func TestStoreEvictsLRU(t *testing.T) {
	// One set, two ways: the third distinct key must displace the least
	// recently used of the first two.
	cfg := StoreConfig{Sets: 1, Ways: 2, SlotBytes: 64}
	s, st := newTestStore(t, cfg)

	put := func(k, v string) {
		if ok, _ := storePut(s, st, []byte(k), []byte(v)); !ok {
			t.Fatalf("Put(%q) failed", k)
		}
	}
	get := func(k string) bool {
		hit, _ := storeGet(s, st, []byte(k))
		return hit
	}

	put("a", "1")
	put("b", "2")
	if !get("a") { // touch a so b is LRU
		t.Fatal("a should hit before eviction")
	}
	put("c", "3") // evicts b
	if st.Stats().Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", st.Stats().Evictions.Value())
	}
	if get("b") {
		t.Fatal("b should have been evicted")
	}
	if !get("a") || !get("c") {
		t.Fatal("a and c should both be resident")
	}
}

func TestStoreRejectsOversized(t *testing.T) {
	cfg := StoreConfig{Sets: 4, Ways: 2, SlotBytes: 16}
	s, st := newTestStore(t, cfg)
	var called, ok bool
	op := &StoreOp{Done: func(_ *StoreOp, o bool, _ []byte) { called, ok = true, o }}
	st.Put([]byte("key"), make([]byte, 32), op)
	s.RunUntil(sim.Millisecond)
	if !called || ok {
		t.Fatalf("oversized put: called=%v ok=%v, want called=true ok=false", called, ok)
	}
}

func TestStoreCollisionDisprovedByDRAM(t *testing.T) {
	// Force a tag alias: write entry, then corrupt its tag hash to match a
	// different key of the same length. The DRAM key compare must turn the
	// false tag hit into a miss and count the collision.
	cfg := StoreConfig{Sets: 1, Ways: 1, SlotBytes: 64}
	s, st := newTestStore(t, cfg)
	if ok, _ := storePut(s, st, []byte("aaaa"), []byte("v")); !ok {
		t.Fatal("Put failed")
	}

	alias := []byte("bbbb")
	st.tags[0].hash = keyHash(alias)

	hit, _ := storeGet(s, st, alias)
	if hit {
		t.Fatal("alias must not hit")
	}
	if st.Stats().Collisions.Value() != 1 {
		t.Fatalf("collisions = %d, want 1", st.Stats().Collisions.Value())
	}
}

// ---- Cuckoo store ----

func TestCuckooRelocatesUnderPressure(t *testing.T) {
	// A tiny directory (4 buckets x 1 way) fills fast; keep inserting
	// distinct keys until a relocation (kick) happens, and verify every
	// non-evicted key still reads back.
	cfg := StoreConfig{Sets: 4, Ways: 1, SlotBytes: 64, Cuckoo: true, CuckooKicks: 4}
	s, st := newTestStore(t, cfg)

	keys := make([][]byte, 0, 16)
	for i := 0; i < 16; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		keys = append(keys, k)
		if ok, _ := storePut(s, st, k, []byte{byte(i)}); !ok {
			t.Fatalf("Put(%q) failed", k)
		}
		if st.stats.CuckooKicks.Value() > 0 {
			break
		}
	}
	if st.stats.CuckooKicks.Value() == 0 {
		t.Skip("no relocation triggered (hash spread); directory too friendly")
	}
	// Every key still present must return its own value (relocation must
	// move payloads with tags, not just tags).
	found := 0
	for i, k := range keys {
		hit, got := storeGet(s, st, k)
		if hit {
			found++
			if !bytes.Equal(got, []byte{byte(i)}) {
				t.Fatalf("key %q returned %v, want %v", k, got, []byte{byte(i)})
			}
		}
	}
	used, _ := st.Occupancy()
	if found != used {
		t.Fatalf("found %d readable keys but occupancy says %d", found, used)
	}
}

func TestCuckooFullDirectoryEvicts(t *testing.T) {
	// Fill a 2-bucket x 1-way directory past capacity: inserts must keep
	// succeeding by evicting (cache semantics), never failing.
	cfg := StoreConfig{Sets: 2, Ways: 1, SlotBytes: 64, Cuckoo: true, CuckooKicks: 2}
	s, st := newTestStore(t, cfg)
	for i := 0; i < 8; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if ok, _ := storePut(s, st, k, []byte{byte(i)}); !ok {
			t.Fatalf("Put(%q) failed on a full directory", k)
		}
	}
	used, total := st.Occupancy()
	if used > total {
		t.Fatalf("occupancy %d/%d", used, total)
	}
	if st.Stats().Puts.Value() != 8 {
		t.Fatalf("puts = %d, want 8", st.Stats().Puts.Value())
	}
}

func TestCuckooBucketsDiffer(t *testing.T) {
	cfg := StoreConfig{Sets: 8, Ways: 2, SlotBytes: 64, Cuckoo: true}
	_, st := newTestStore(t, cfg)
	for i := 0; i < 256; i++ {
		h := keyHash([]byte(fmt.Sprintf("key-%d", i)))
		bs, n := st.buckets(h)
		b1, b2 := bs[0], bs[1]
		if n != 2 || b1 == b2 {
			t.Fatalf("hash %x: candidate buckets collide (%d)", h, b1)
		}
		if st.altBucket(b1, h) != b2 || st.altBucket(b2, h) != b1 {
			t.Fatalf("hash %x: altBucket not an involution", h)
		}
	}
}

// TestCuckooOccupancyBeatsSetAssoc is the directory A/B at equal
// geometry: insert distinct keys until the first eviction; the cuckoo
// directory must absorb at least as many entries as the set-associative
// one before displacing anything.
func TestCuckooOccupancyBeatsSetAssoc(t *testing.T) {
	geo := StoreConfig{Sets: 16, Ways: 2, SlotBytes: 64}
	fill := func(st *Store, s *sim.Simulation) int {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("key-%04d", i))
			storePut(s, st, k, []byte("v"))
			if st.Stats().Evictions.Value() > 0 {
				return i // entries inserted before the first displacement
			}
			if i > 16*2*4 {
				return i
			}
		}
	}
	sa, saStore := newTestStore(t, geo)
	saFill := fill(saStore, sa)

	geo.Cuckoo = true
	ck, ckStore := newTestStore(t, geo)
	ckFill := fill(ckStore, ck)

	if ckFill < saFill {
		t.Fatalf("cuckoo displaced after %d inserts, set-assoc after %d — cuckoo should hold more", ckFill, saFill)
	}
	t.Logf("first displacement: set-assoc after %d inserts, cuckoo after %d (of %d slots)", saFill, ckFill, 16*2)
}

// TestCuckooKicksCountedOnce pins the registry to the store's own
// counters: each counter is registered once, so a telemetry snapshot
// reports exactly what Stats() holds.
func TestCuckooKicksCountedOnce(t *testing.T) {
	s := sim.New(1)
	reg := obs.Enable(s).Registry
	st := NewStore(s, dram.New(s, dram.DefaultConfig()), StoreConfig{Sets: 16, Ways: 2, SlotBytes: 64, Cuckoo: true, CuckooKicks: 4})
	for i := 0; i < 48; i++ {
		storePut(s, st, []byte(fmt.Sprintf("key-%02d", i)), []byte{byte(i)})
	}
	if st.Stats().CuckooKicks.Value() == 0 {
		t.Fatal("geometry never kicked")
	}
	want := map[string]uint64{
		"kvcache.cuckoo_kicks":  st.Stats().CuckooKicks.Value(),
		"kvcache.cuckoo_aborts": st.Stats().CuckooAborts.Value(),
		"kvcache.store_puts":    st.Stats().Puts.Value(),
	}
	for _, smp := range reg.Snapshot() {
		if w, ok := want[smp.Name]; ok && smp.N != w {
			t.Errorf("%s: snapshot %d, Stats %d", smp.Name, smp.N, w)
		}
	}
}
