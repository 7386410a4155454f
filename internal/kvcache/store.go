package kvcache

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// StoreConfig sizes one shard's cache: a tag directory held in role SRAM,
// with key+value payloads in the board's DRAM channel through the ER's
// DRAM port. The directory is arrays, not Go maps — iteration order can
// never leak into the model, mirroring the fixed comparator tree a
// hardware lookup would be.
//
// One directory serves two designs. By default every key has one
// candidate bucket of Ways slots (set-associative, LRU eviction). With
// Cuckoo set, a second hash gives every key a partner bucket too, and
// inserts relocate residents along a bounded BFS path before giving up
// and evicting. Cuckoo trades insert-time DRAM moves for a flatter
// collision curve, i.e. higher usable occupancy at the same hit rate —
// the ROADMAP item 6 A/B.
type StoreConfig struct {
	// Sets x Ways is the directory geometry (buckets x slots for cuckoo;
	// cuckoo rounds Sets up to a power of two for the partner-bucket XOR).
	Sets, Ways int
	// SlotBytes is the DRAM arena reserved per directory slot (key
	// followed by value; an entry larger than this is rejected).
	SlotBytes int
	// Base is the DRAM byte address of slot 0.
	Base int64

	// Cuckoo selects the cuckoo directory; CuckooKicks bounds the BFS
	// relocation path length per insert (default 8).
	Cuckoo      bool
	CuckooKicks int
}

// DefaultStoreConfig sizes a shard at 1024 sets x 4 ways x 1 KiB slots —
// a 4 MiB DRAM arena behind a 4K-entry SRAM directory.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{Sets: 1024, Ways: 4, SlotBytes: 1 << 10}
}

// StoreStats aggregates per-shard cache counters.
type StoreStats struct {
	Hits       metrics.Counter
	Misses     metrics.Counter
	Puts       metrics.Counter
	Evictions  metrics.Counter // valid entry displaced by a Put
	Collisions metrics.Counter // tag matched but DRAM key differed (hash alias)
	Rejected   metrics.Counter // DRAM queue full: served as miss / dropped put

	// Cuckoo-only counters (zero on the set-associative directory).
	CuckooKicks  metrics.Counter // resident entries relocated by inserts
	CuckooAborts metrics.Counter // relocation chains invalidated mid-flight
}

// StoreOp is one pooled per-request completion context. Done fires
// exactly once with (op, ok, val): for Get, ok means hit and val aliases
// a reused DRAM buffer valid only for the duration of the call; for Put,
// ok means the entry was accepted (val is nil) and Evicted reports
// whether a resident entry was displaced. Ops are pooled by their owner
// (the Shard), which is why completion carries the op back: the Done
// callback is a static function, not a per-request closure.
type StoreOp struct {
	Done func(op *StoreOp, ok bool, val []byte)

	Evicted bool

	// Caller context, opaque to the store.
	Shard *Shard
	ID    uint64
	From  int
	Kind  byte
	Span  obs.SpanID

	// Multi-get accumulation state (shard-owned, see mgetStep).
	keys    []byte // concatenated key bytes, copied out of the request
	keyOffs []int  // len(keys) prefix offsets; keyOffs[i+1]-keyOffs[i] = len(key i)
	keyIdx  int
	reply   []byte // reply datagram under construction
}

// Store is one shard's DRAM-backed cache. A key hashes to one candidate
// bucket (h % Sets), or to two when cfg.Cuckoo is set: the partner
// bucket is b XOR a second hash of the key, the standard partner-bucket
// trick. Lookups probe Ways slots per candidate bucket. An insert takes
// the key's own slot, else a free slot; on a full cuckoo pair it
// relocates residents along a BFS-shortest path of at most CuckooKicks
// moves — each move a real DRAM read+write of the resident's slot, which
// is the cost the directory A/B measures. Otherwise it evicts the LRU
// way of the primary bucket (cache semantics: occupancy pressure costs
// hit rate, never correctness).
type Store struct {
	mem  *dram.Controller
	cfg  StoreConfig
	mask uint64 // Sets-1; used for the partner bucket (Sets is a power of two under Cuckoo)
	tags []tagEntry
	tick uint64

	// opFree pools the per-request DRAM state; wbuf is the reused
	// key+value concatenation buffer for writes (the DRAM controller
	// copies it synchronously).
	opFree []*storeOp
	wbuf   []byte

	// Cuckoo BFS scratch, reused across inserts.
	bfsSlot []int32 // visited slot ids in visit order
	bfsPrev []int32 // parent index in bfsSlot (-1 = root)

	stats StoreStats
}

// storeOp carries one in-flight operation: a Get's DRAM confirm, a Put's
// write, or a cuckoo relocation chain (read resident, write it to its
// partner bucket, repeat up the path, finally write the new entry). Key
// and value are copied in when the operation outlives the call (the
// request buffer is recycled long before the DRAM transaction completes).
type storeOp struct {
	st      *Store
	op      *StoreOp
	key     []byte
	val     []byte
	kl, vl  int
	evicted bool

	// Relocation chain state: path[0] is the slot the new entry lands
	// in; path[i+1] is where path[i]'s resident moves to. idx walks from
	// the end (the free slot) backwards.
	path []int32
	idx  int
}

// tagEntry is one SRAM directory slot.
type tagEntry struct {
	used   bool
	hash   uint64
	keyLen uint16
	valLen uint16
	last   uint64 // LRU clock at last touch
}

// NewStore builds a store over mem. Under cfg.Cuckoo, Sets is rounded up
// to a power of two (the partner bucket is b XOR h2). The arena
// [Base, Base+Sets*Ways*SlotBytes) must fit the controller's capacity.
func NewStore(s *sim.Simulation, mem *dram.Controller, cfg StoreConfig) *Store {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.SlotBytes <= 0 {
		panic(fmt.Sprintf("kvcache: invalid store config %+v", cfg))
	}
	if cfg.Cuckoo {
		sets := 1
		for sets < cfg.Sets {
			sets <<= 1
		}
		cfg.Sets = sets
		if cfg.CuckooKicks <= 0 {
			cfg.CuckooKicks = 8
		}
	}
	st := &Store{
		mem: mem, cfg: cfg, mask: uint64(cfg.Sets - 1),
		tags: make([]tagEntry, cfg.Sets*cfg.Ways),
	}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Counter("kvcache.store_hits", "reqs", "kvcache", "GETs answered from the cache", &st.stats.Hits)
		reg.Counter("kvcache.store_misses", "reqs", "kvcache", "GETs not present", &st.stats.Misses)
		reg.Counter("kvcache.store_puts", "reqs", "kvcache", "PUTs applied", &st.stats.Puts)
		reg.Counter("kvcache.store_evictions", "entries", "kvcache", "valid entries displaced by PUTs", &st.stats.Evictions)
		reg.Counter("kvcache.store_collisions", "reqs", "kvcache", "tag hits disproved by the DRAM key", &st.stats.Collisions)
		reg.Counter("kvcache.store_rejected", "reqs", "kvcache", "DRAM queue-full rejections", &st.stats.Rejected)
		reg.Counter("kvcache.cuckoo_kicks", "entries", "kvcache", "resident entries relocated by inserts", &st.stats.CuckooKicks)
		reg.Counter("kvcache.cuckoo_aborts", "chains", "kvcache", "relocation chains invalidated mid-flight", &st.stats.CuckooAborts)
	}
	return st
}

// Config returns the store geometry (with Sets rounded up under Cuckoo).
func (st *Store) Config() StoreConfig { return st.cfg }

// Stats exposes the counter block.
func (st *Store) Stats() *StoreStats { return &st.stats }

// Occupancy reports used and total directory slots.
func (st *Store) Occupancy() (used, total int) {
	for i := range st.tags {
		if st.tags[i].used {
			used++
		}
	}
	return used, len(st.tags)
}

// buckets returns the key's candidate buckets: bs[:n], primary first.
func (st *Store) buckets(h uint64) (bs [2]int, n int) {
	bs[0] = int(h % uint64(st.cfg.Sets))
	if !st.cfg.Cuckoo {
		return bs, 1
	}
	bs[1] = st.altBucket(bs[0], h)
	return bs, 2
}

// altBucket returns the partner bucket of bucket b for hash h. The XOR
// offset is a splitmix64 finalizer of h, forced nonzero so the two
// candidate buckets always differ.
func (st *Store) altBucket(b int, h uint64) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	o := h & st.mask
	if o == 0 {
		o = 1
	}
	return int((uint64(b) ^ o) & st.mask)
}

// probe scans buckets bs in order and returns the slot holding hash h
// with key length kl (-1 if none) and the first unused slot before it
// (-1 if none).
func (st *Store) probe(bs []int, h uint64, kl int) (hit, free int) {
	free = -1
	for _, b := range bs {
		for slot := b * st.cfg.Ways; slot < (b+1)*st.cfg.Ways; slot++ {
			switch e := &st.tags[slot]; {
			case !e.used:
				if free < 0 {
					free = slot
				}
			case e.hash == h && int(e.keyLen) == kl:
				return slot, free
			}
		}
	}
	return -1, free
}

func (st *Store) slotAddr(slot int) int64 {
	return st.cfg.Base + int64(slot*st.cfg.SlotBytes)
}

func (st *Store) allocOp(op *StoreOp) *storeOp {
	var o *storeOp
	if n := len(st.opFree); n > 0 {
		o = st.opFree[n-1]
		st.opFree = st.opFree[:n-1]
	} else {
		o = &storeOp{st: st}
	}
	o.op = op
	o.evicted = false
	return o
}

func (st *Store) freeOp(o *storeOp) {
	o.op = nil
	o.path = o.path[:0]
	st.opFree = append(st.opFree, o)
}

// getDone completes a Get's DRAM confirm read.
func getDone(arg any, data []byte) {
	o := arg.(*storeOp)
	st, op := o.st, o.op
	if !bytesEqual(data[:o.kl], o.key) {
		st.stats.Collisions.Inc()
		st.stats.Misses.Inc()
		st.freeOp(o)
		op.Done(op, false, nil)
		return
	}
	st.stats.Hits.Inc()
	val := data[o.kl : o.kl+o.vl]
	st.freeOp(o)
	op.Done(op, true, val)
}

// Get looks key up: an SRAM directory probe of every candidate bucket,
// then (on a tag hit) a DRAM read of the slot to fetch the value and
// disprove hash aliases. op.Done fires exactly once; hit=false covers
// absent keys, aliases, and DRAM pressure rejections alike — a cache
// never owes an answer, only speed. The key is only read during the
// call, so callers may reuse its buffer immediately.
func (st *Store) Get(key []byte, op *StoreOp) {
	h := keyHash(key)
	bs, n := st.buckets(h)
	st.tick++
	slot, _ := st.probe(bs[:n], h, len(key))
	if slot < 0 {
		st.stats.Misses.Inc()
		op.Done(op, false, nil)
		return
	}
	e := &st.tags[slot]
	e.last = st.tick
	o := st.allocOp(op)
	o.key = append(o.key[:0], key...)
	o.kl, o.vl = int(e.keyLen), int(e.valLen)
	if err := st.mem.ReadCall(st.slotAddr(slot), o.kl+o.vl, getDone, o); err != nil {
		st.stats.Rejected.Inc()
		st.stats.Misses.Inc()
		st.freeOp(o)
		op.Done(op, false, nil)
	}
}

// putDone completes the final (new-entry) DRAM write of a Put.
func putDone(arg any, _ []byte) {
	o := arg.(*storeOp)
	st, op, evicted := o.st, o.op, o.evicted
	st.stats.Puts.Inc()
	st.freeOp(o)
	op.Evicted = evicted
	op.Done(op, true, nil)
}

// writeEntry issues the new entry's tag update and DRAM write into slot.
// A rejected write invalidates the slot rather than leave a tag pointing
// at unwritten DRAM.
func (st *Store) writeEntry(o *storeOp, slot int, h uint64, key, val []byte) {
	e := &st.tags[slot]
	st.wbuf = append(append(st.wbuf[:0], key...), val...)
	if err := st.mem.WriteCall(st.slotAddr(slot), st.wbuf, putDone, o); err != nil {
		st.stats.Rejected.Inc()
		e.used = false
		evicted, op := o.evicted, o.op
		st.freeOp(o)
		op.Evicted = evicted
		op.Done(op, false, nil)
		return
	}
	e.used = true
	e.hash = h
	e.keyLen = uint16(len(key))
	e.valLen = uint16(len(val))
	e.last = st.tick
}

// Put inserts or overwrites key=val with the same aliasing contract as
// Get. It takes the key's existing slot first, then a free way in a
// candidate bucket (primary first, like the paper's d-ary cuckoo
// insert); both cost one DRAM write. A cuckoo insert into a full bucket
// pair then tries a relocation chain. Otherwise the primary bucket's
// least recently used way is evicted. op.Done fires exactly once with
// ok=false when the entry is too large for a slot or the DRAM controller
// rejected the write.
func (st *Store) Put(key, val []byte, op *StoreOp) {
	if len(key)+len(val) > st.cfg.SlotBytes {
		op.Evicted = false
		op.Done(op, false, nil)
		return
	}
	h := keyHash(key)
	bs, n := st.buckets(h)
	st.tick++
	o := st.allocOp(op)

	slot, free := st.probe(bs[:n], h, len(key))
	if slot < 0 {
		slot = free
	}
	if slot < 0 && n == 2 {
		if o.path = st.findPath(bs, o.path[:0]); len(o.path) > 0 {
			o.key = append(o.key[:0], key...)
			o.val = append(o.val[:0], val...)
			o.idx = len(o.path) - 1
			st.moveNext(o)
			return
		}
	}
	if slot < 0 {
		lru := uint64(1<<63 - 1)
		for s := bs[0] * st.cfg.Ways; s < (bs[0]+1)*st.cfg.Ways; s++ {
			if e := &st.tags[s]; e.last < lru {
				lru, slot = e.last, s
			}
		}
		o.evicted = true
		st.stats.Evictions.Inc()
	}
	st.writeEntry(o, slot, h, key, val)
}

// findPath BFS-searches for a chain slot_0 <- slot_1 <- ... <- slot_k
// where slot_k's partner bucket has a free way, k < CuckooKicks, and
// slot_0 is in one of the insert's candidate buckets. It appends the
// slot ids to path, ending with the free slot the chain drains into, and
// returns path unchanged when no chain exists within the bound.
func (st *Store) findPath(bs [2]int, path []int32) []int32 {
	ways := st.cfg.Ways
	st.bfsSlot = st.bfsSlot[:0]
	st.bfsPrev = st.bfsPrev[:0]
	for _, b := range bs {
		for slot := b * ways; slot < (b+1)*ways; slot++ {
			st.bfsSlot = append(st.bfsSlot, int32(slot))
			st.bfsPrev = append(st.bfsPrev, -1)
		}
	}
	// Depth-tracking: nodes [lo, hi) are the current BFS level.
	lo, hi := 0, len(st.bfsSlot)
	for depth := 0; depth < st.cfg.CuckooKicks && lo < hi; depth++ {
		for i := lo; i < hi; i++ {
			slot := int(st.bfsSlot[i])
			alt := st.altBucket(slot/ways, st.tags[slot].hash)
			// A free way in the resident's partner bucket ends the search.
			for dst := alt * ways; dst < (alt+1)*ways; dst++ {
				if !st.tags[dst].used {
					start := len(path)
					path = append(path, int32(dst))
					for j := i; j >= 0; j = int(st.bfsPrev[j]) {
						path = append(path, st.bfsSlot[j])
					}
					// Reverse into insert-order: path[0] = candidate
					// bucket slot, ..., path[len-1] = free slot.
					for a, b := start, len(path)-1; a < b; a, b = a+1, b-1 {
						path[a], path[b] = path[b], path[a]
					}
					return path
				}
			}
			// Otherwise the partner bucket's residents are the next level.
			if len(st.bfsSlot) < 4*st.cfg.Sets { // frontier bound
				for w := alt * ways; w < (alt+1)*ways; w++ {
					st.bfsSlot = append(st.bfsSlot, int32(w))
					st.bfsPrev = append(st.bfsPrev, int32(i))
				}
			}
		}
		lo, hi = hi, len(st.bfsSlot)
	}
	return path
}

// moveNext relocates the resident of path[idx-1] into path[idx] (a slot
// known free when the chain was planned), walking idx toward the head of
// the path; when idx reaches 0 the new entry is written into path[0].
// Chains interleave with other traffic at DRAM latency, so each step
// re-validates its source and destination and aborts the chain into a
// plain LRU eviction when the directory moved underneath it.
func (st *Store) moveNext(o *storeOp) {
	if o.idx == 0 {
		st.writeEntry(o, int(o.path[0]), keyHash(o.key), o.key, o.val)
		return
	}
	src, dst := int(o.path[o.idx-1]), int(o.path[o.idx])
	se, de := &st.tags[src], &st.tags[dst]
	if !se.used || de.used || dst/st.cfg.Ways != st.altBucket(src/st.cfg.Ways, se.hash) {
		st.abortChain(o)
		return
	}
	o.kl, o.vl = int(se.keyLen), int(se.valLen)
	if err := st.mem.ReadCall(st.slotAddr(src), o.kl+o.vl, moveRead, o); err != nil {
		st.stats.Rejected.Inc()
		st.abortChain(o)
	}
}

// moveRead has the resident's bytes; write them into the destination.
func moveRead(arg any, data []byte) {
	o := arg.(*storeOp)
	st := o.st
	src, dst := int(o.path[o.idx-1]), int(o.path[o.idx])
	se, de := &st.tags[src], &st.tags[dst]
	if !se.used || de.used {
		st.abortChain(o)
		return
	}
	if err := st.mem.WriteCall(st.slotAddr(dst), data, moveWrite, o); err != nil {
		st.stats.Rejected.Inc()
		st.abortChain(o)
		return
	}
	// Commit the relocation in the directory at write issue: the tag and
	// its payload land together from the service's point of view because
	// reads of the moved entry now target the destination slot, which the
	// controller serializes behind this write.
	*de = *se
	se.used = false
	st.stats.CuckooKicks.Inc()
}

// moveWrite completes one relocation; continue up the chain.
func moveWrite(arg any, _ []byte) {
	o := arg.(*storeOp)
	o.idx--
	o.st.moveNext(o)
}

// abortChain gives up on a relocation chain (directory changed or DRAM
// pressure) and falls back to evicting the primary candidate slot.
func (st *Store) abortChain(o *storeOp) {
	st.stats.CuckooAborts.Inc()
	slot := int(o.path[0])
	if st.tags[slot].used {
		st.stats.Evictions.Inc()
		o.evicted = true
	}
	st.writeEntry(o, slot, keyHash(o.key), o.key, o.val)
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
