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

// modeTable is one mode's direct-mapped table; slot i's key is
// keys[i*keyLen:(i+1)*keyLen]. A key lives in the slot its hash's top
// bits name.
type modeTable struct {
	keyLen int
	keys   []byte
	slots  []modeResult
}

// modeMemo caches per-mode evaluation results of the fitness path. A mode's
// list schedule, voltage scaling, lateness and power depend only on its
// mapping row and on the sizes of the core pools its hardware tasks use,
// so the key is exactly that: per task, its PE and, on a hardware PE, the
// instance count of its (PE, type) pool in the mode. Mobility depends on
// the row alone and core allocation is cross-mode (an ASIC's pools are
// sized over every mode), which is why the pool sizes must be in the key.
// Probabilities and weights enter after the mode loop and stay out.
//
// Every key is a fixed number of bytes per task, wide enough for every
// (PE, count) pair the allocator can produce; a lookup compares the whole
// key, never only its hash. The memo is only valid for the system and DVS
// configuration it was filled under; prepare resets it when they change.
type modeMemo struct {
	sys         *model.System
	dvs, swOnly bool
	// bits sizes every table at 1<<bits slots (0 selects modeMemoBits).
	bits int
	// A task's key value is pe*countStride+count, written little-endian
	// in width bytes.
	countStride uint64
	width       int
	tables      []modeTable
	// key is the key lookup built last; its capacity fits every mode.
	key []byte
	// hits and misses count lookups since the evaluator was made.
	hits, misses uint64
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
	// overlap demand), and at least one.
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
	}
	mm.key = grow(mm.key, maxTasks*mm.width)[:0]
}

// lookup builds the key of mode m under the mapping row and allocation
// and returns its hash and the slot holding its result, or nil on a miss.
// ok is false when the key cannot be represented (a PE outside the
// system, or a pool larger than the allocator makes); the mode is then
// neither looked up nor stored.
func (mm *modeMemo) lookup(s *model.System, m model.ModeID, row []model.PEID, alloc *Allocation) (h uint64, hit *modeResult, ok bool) {
	if !mm.keyOf(s, m, row, alloc) {
		return 0, nil, false
	}
	h = hashKey(mm.key)
	tab := &mm.tables[m]
	i := slotOf(h, mm.bits)
	if r := &tab.slots[i]; r.check == check(h) && bytes.Equal(tab.key(i), mm.key) {
		mm.hits++
		return h, r, true
	}
	mm.misses++
	return h, nil, true
}

// keyOf builds the key of mode m into mm.key, reporting false when it
// cannot be represented.
func (mm *modeMemo) keyOf(s *model.System, m model.ModeID, row []model.PEID, alloc *Allocation) bool {
	g := s.App.Mode(m).Graph
	nPEs := uint64(len(s.Arch.PEs))
	mm.key = mm.key[:len(row)*mm.width]
	for t, pe := range row {
		if uint64(pe) >= nPEs {
			return false
		}
		var count uint64
		if s.Arch.PE(pe).Class.IsHardware() {
			count = uint64(alloc.Instances(m, pe, g.Task(model.TaskID(t)).Type))
			if count >= mm.countStride {
				return false
			}
		}
		v := uint64(pe)*mm.countStride + count
		for b := range mm.width {
			mm.key[t*mm.width+b] = byte(v >> (8 * b))
		}
	}
	return true
}

// hashKey is FNV-1a over the key followed by a 64-bit finaliser: FNV
// alone mixes the few small bytes of a mode's key poorly into the top
// bits the slot index takes.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
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

// key returns the key stored in slot i.
func (t *modeTable) key(i int) []byte { return t.keys[i*t.keyLen : (i+1)*t.keyLen] }

// store records a mode result under the key lookup last built (hash h),
// replacing whatever occupied its slot. A result whose unroutable count
// does not fit the slot is not stored.
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
	copy(tab.key(i), mm.key)
}
