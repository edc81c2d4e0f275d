package synth

import (
	"bytes"
	"math"

	"momosyn/internal/energy"
	"momosyn/internal/model"
)

// modeMemoBits caps the slot count of each mode's table at 1<<modeMemoBits.
// In a sweep over 256 to 16,384 slots (smartphone, mul9 and mul11 with DVS
// on; mul1, mul5 and mul9 with DVS off; paper GA defaults, seeds 1-2) 1,024
// slots came within 1.5 points of an unbounded memo's hit rate on every
// spec, and larger tables gained at most 0.7 points. A run whose GA budget
// cannot make that many evaluations gets a smaller table (memoBits).
const modeMemoBits = 10

// memoBits returns the table size, in bits, of a run that makes at most
// about evals fitness evaluations: the smallest power of two of at least
// twice that, at most 1<<modeMemoBits. evals <= 0 stands for an unknown
// budget and gets the cap.
func memoBits(evals int) int {
	bits := 0
	for bits < modeMemoBits && (evals <= 0 || 1<<bits < 2*evals) {
		bits++
	}
	return bits
}

// modeResult is what the memo keeps of one mode's evaluation: the scalars
// the fitness reads, never the schedule. The mode's period is not stored;
// it is the mode's own.
type modeResult struct {
	// check is the low half of the key's hash with the low bit set; 0
	// marks an empty slot.
	check      uint32
	unroutable int32
	dynamic    float64
	static     float64
	lateness   float64
}

// power returns the mode power the result stands for.
func (r *modeResult) power(mode *model.Mode) energy.ModePower {
	return energy.ModePower{DynamicEnergy: r.dynamic, Period: mode.Period, StaticPower: r.static}
}

// modeTable holds one mode's two direct-mapped tables and the mode's
// lookup in progress. A key lives in the slot its hash's top bits name.
type modeTable struct {
	// keyLen is the length of a row key and of a result key: width bytes
	// per task of the mode.
	keyLen int
	// The result table: slot i's key is keys[i*keyLen:(i+1)*keyLen].
	keys  []byte
	slots []modeResult
	// The row table: slot i holds a mapping row followed by its per-task
	// core demands, keyLen bytes each, in rows[2*i*keyLen:2*(i+1)*keyLen];
	// rowChecks[i] is the row hash's check, 0 for an empty slot.
	rowChecks []uint32
	rows      []byte
	// The lookup in progress: row and key are the row key and the result
	// key last built, state is the hash state after the row key, and keyed
	// is false when the row cannot be represented.
	row, key []byte
	state    uint64
	keyed    bool
}

// modeMemo caches per-mode evaluation results of the fitness path in two
// tables per mode.
//
// The result table holds what a mode's evaluation leaves for the fitness.
// A mode's list schedule, voltage scaling, lateness and power depend only
// on its mapping row and on the sizes of the core pools its hardware
// tasks use, so the key is exactly that: per task, its PE and, on a
// hardware PE, the instance count of its (PE, type) pool in the mode. Core
// allocation is cross-mode (an ASIC's pools are sized over every mode),
// which is why the pool sizes must be in the key. Probabilities and
// weights enter after the mode loop and stay out.
//
// The row table is keyed by the mapping row alone and holds the mode's
// share of core allocation: per task, the replica demand of its (PE, type)
// pool, 0 on a software PE. Mobility, and so the demand, depends on the
// row only. A row hit spares the mode's mobility analysis, which then runs
// only if the result table misses too.
//
// Every key is a fixed number of bytes per task, wide enough for every
// (PE, count) pair the allocator can produce; a lookup compares the whole
// key, never only its hash. The result key's hash continues from the row
// key's, so a row is hashed once per evaluation. The memo is only valid
// for the system and DVS configuration it was filled under; prepare
// resets it when they change.
type modeMemo struct {
	sys         *model.System
	dvs, swOnly bool
	// bits sizes every table at 1<<bits slots (0 selects modeMemoBits).
	bits int
	// A task's result-key value is pe*countStride+count, its row-key
	// value pe and its demand value the demand, each written
	// little-endian in width bytes.
	countStride uint64
	width       int
	tables      []modeTable
	// hits and misses count result lookups, rowHits and rowMisses row
	// lookups, since the evaluator was made.
	hits, misses       uint64
	rowHits, rowMisses uint64
}

// prepare readies the memo for an evaluation of s under the DVS settings,
// resetting it when any of them changed since the memo was filled.
func (mm *modeMemo) prepare(s *model.System, dvs, swOnly bool) {
	if mm.sys == s && mm.dvs == dvs && mm.swOnly == swOnly {
		return
	}
	mm.sys, mm.dvs, mm.swOnly = s, dvs, swOnly
	if mm.bits == 0 {
		mm.bits = modeMemoBits
	}
	// The allocator never gives a type more instances than the largest
	// mode has tasks (one mandatory core plus replicas up to the type's
	// overlap demand), and at least one. A row key's PE and a demand (at
	// most the mode's task count) are below that limit too, so the row
	// table uses the same width.
	maxTasks := 1
	for _, mode := range s.App.Modes {
		maxTasks = max(maxTasks, len(mode.Graph.Tasks))
	}
	mm.countStride = uint64(maxTasks) + 1
	mm.width = 1
	for limit := uint64(len(s.Arch.PEs)) * mm.countStride; mm.width < 8 && limit > 1<<(8*mm.width); {
		mm.width *= 2
	}
	mm.tables = grow(mm.tables, len(s.App.Modes))
	for m, mode := range s.App.Modes {
		t := &mm.tables[m]
		t.keyLen = len(mode.Graph.Tasks) * mm.width
		t.slots = grow(t.slots, 1<<mm.bits)
		clear(t.slots)
		t.keys = grow(t.keys, len(t.slots)*t.keyLen)
		t.rowChecks = grow(t.rowChecks, len(t.slots))
		clear(t.rowChecks)
		t.rows = grow(t.rows, 2*len(t.slots)*t.keyLen)
		t.row = grow(t.row, t.keyLen)
		t.key = grow(t.key, t.keyLen)
	}
}

// put writes v as the i-th value of buf.
func (mm *modeMemo) put(buf []byte, i int, v uint64) {
	for b := range mm.width {
		buf[i*mm.width+b] = byte(v >> (8 * b))
	}
}

// get reads the i-th value of buf.
func (mm *modeMemo) get(buf []byte, i int) uint64 {
	var v uint64
	for b := range mm.width {
		v |= uint64(buf[i*mm.width+b]) << (8 * b)
	}
	return v
}

// lookupRow builds mode m's row key from the mapping row and returns the
// per-task demands its row-table slot holds, or nil on a miss. A row with
// a PE outside the system is neither looked up nor stored, and neither is
// a result of it.
//
//mm:noalloc
func (mm *modeMemo) lookupRow(s *model.System, m model.ModeID, row []model.PEID) []byte {
	t := &mm.tables[m]
	t.keyed = false
	nPEs := uint64(len(s.Arch.PEs))
	for k, pe := range row {
		if uint64(pe) >= nPEs {
			return nil
		}
		mm.put(t.row, k, uint64(pe))
	}
	t.keyed = true
	t.state = fnv(fnvOffset, t.row)
	h := mix(t.state)
	i := slotOf(h, mm.bits)
	if t.rowChecks[i] == check(h) && bytes.Equal(t.slotRow(i), t.row) {
		mm.rowHits++
		return t.slotDemands(i)
	}
	mm.rowMisses++
	return nil
}

// loadDemands writes the per-task demands lookupRow returned for mode m's
// mapping row into need, the mode's demand rows indexed pe*nTypes+tt.
//
//mm:noalloc
func (mm *modeMemo) loadDemands(s *model.System, m model.ModeID, row []model.PEID, demands []byte, need []int) {
	clear(need)
	g := s.App.Mode(m).Graph
	nTypes := len(s.Lib.Types)
	for k, pe := range row {
		if d := mm.get(demands, k); d > 0 {
			need[int(pe)*nTypes+int(g.Tasks[k].Type)] = int(d)
		}
	}
}

// storeRow records need, mode m's demand rows, under the row key
// lookupRow last built for the mapping row, replacing whatever occupied
// its slot.
//
//mm:noalloc
func (mm *modeMemo) storeRow(s *model.System, m model.ModeID, row []model.PEID, need []int) {
	t := &mm.tables[m]
	if !t.keyed {
		return
	}
	h := mix(t.state)
	i := slotOf(h, mm.bits)
	t.rowChecks[i] = check(h)
	copy(t.slotRow(i), t.row)
	demands := t.slotDemands(i)
	g := s.App.Mode(m).Graph
	nTypes := len(s.Lib.Types)
	for k, pe := range row {
		mm.put(demands, k, uint64(need[int(pe)*nTypes+int(g.Tasks[k].Type)]))
	}
}

// lookup builds the result key of mode m under the mapping row, whose row
// key lookupRow built, and the allocation, and returns its hash and the
// slot holding its result, or nil on a miss. ok is false when the key
// cannot be represented (a PE outside the system, or a pool larger than
// the allocator makes); the mode is then neither looked up nor stored.
func (mm *modeMemo) lookup(s *model.System, m model.ModeID, row []model.PEID, alloc *Allocation) (h uint64, hit *modeResult, ok bool) {
	t := &mm.tables[m]
	if !t.keyed {
		return 0, nil, false
	}
	g := s.App.Mode(m).Graph
	for k, pe := range row {
		var count uint64
		if s.Arch.PE(pe).Class.IsHardware() {
			count = uint64(alloc.Instances(m, pe, g.Task(model.TaskID(k)).Type))
			if count >= mm.countStride {
				return 0, nil, false
			}
		}
		mm.put(t.key, k, uint64(pe)*mm.countStride+count)
	}
	h = mix(fnv(t.state, t.key))
	i := slotOf(h, mm.bits)
	if r := &t.slots[i]; r.check == check(h) && bytes.Equal(t.slotKey(i), t.key) {
		mm.hits++
		return h, r, true
	}
	mm.misses++
	return h, nil, true
}

// fnvOffset is the initial FNV-1a state.
const fnvOffset = 14695981039346656037

// fnv folds the bytes into the FNV-1a state h.
func fnv(h uint64, key []byte) uint64 {
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// mix finalises an FNV state into a hash: FNV alone mixes the few small
// bytes of a mode's key poorly into the top bits the slot index takes.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// check is the part of a hash a slot keeps to reject most other keys
// without comparing them; it is never 0.
func check(h uint64) uint32 { return uint32(h) | 1 }

// slotOf returns the index of the slot a key with hash h lives in, in a
// table of 1<<bits slots: the hash's top bits.
func slotOf(h uint64, bits int) int { return int(h >> (64 - bits)) }

// slotKey returns the result key stored in slot i.
func (t *modeTable) slotKey(i int) []byte { return t.keys[i*t.keyLen : (i+1)*t.keyLen] }

// slotRow returns the row stored in row-table slot i.
func (t *modeTable) slotRow(i int) []byte { return t.rows[2*i*t.keyLen : (2*i+1)*t.keyLen] }

// slotDemands returns the per-task demands stored in row-table slot i.
func (t *modeTable) slotDemands(i int) []byte {
	return t.rows[(2*i+1)*t.keyLen : 2*(i+1)*t.keyLen]
}

// store records a mode result under the result key lookup last built for
// mode m (hash h), replacing whatever occupied its slot. A result whose
// unroutable count does not fit the slot is not stored.
func (mm *modeMemo) store(m model.ModeID, h uint64, power energy.ModePower, lateness float64, unroutable int) {
	if unroutable > math.MaxInt32 {
		return
	}
	tab := &mm.tables[m]
	i := slotOf(h, mm.bits)
	tab.slots[i] = modeResult{
		check:      check(h),
		unroutable: int32(unroutable),
		dynamic:    power.DynamicEnergy,
		static:     power.StaticPower,
		lateness:   lateness,
	}
	copy(tab.slotKey(i), tab.key)
}
