package branch

// BTB is a set-associative branch target buffer. The fetch stage uses it
// to obtain the target of a predicted-taken branch; a predicted-taken
// branch that misses in the BTB cannot redirect fetch and behaves like a
// predicted-not-taken branch.
type BTB struct {
	sets    int
	ways    int
	tags    []uint64 // sets*ways; 0 = invalid
	targets []uint64
	lru     []uint8 // higher = more recently used
}

// NewBTB returns a BTB with the given geometry. sets must be a power of
// two and ways positive.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("branch: BTB sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("branch: BTB ways must be positive")
	}
	n := sets * ways
	return &BTB{
		sets:    sets,
		ways:    ways,
		tags:    make([]uint64, n),
		targets: make([]uint64, n),
		lru:     make([]uint8, n),
	}
}

func (b *BTB) base(tid int, pc uint64) (int, uint64) {
	h := mixPC(tid, pc)
	key := h<<1 | 1 // low valid bit, so tag 0 means invalid without aliasing PCs
	set := int(h) & (b.sets - 1)
	return set * b.ways, key
}

// Lookup returns the stored target for the branch at pc, and whether the
// BTB hit.
func (b *BTB) Lookup(tid int, pc uint64) (target uint64, hit bool) {
	base, key := b.base(tid, pc)
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == key {
			b.touch(base, w)
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Insert records the resolved target of a taken branch, replacing the
// least recently used way on a miss.
func (b *BTB) Insert(tid int, pc, target uint64) {
	base, key := b.base(tid, pc)
	victim := 0
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == key {
			victim = w
			break
		}
		if b.lru[base+w] < b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = key
	b.targets[base+victim] = target
	b.touch(base, victim)
}

// touch marks way w in the set at base as most recently used.
func (b *BTB) touch(base, w int) {
	if b.lru[base+w] == 255 {
		for i := 0; i < b.ways; i++ {
			b.lru[base+i] /= 2
		}
	}
	max := uint8(0)
	for i := 0; i < b.ways; i++ {
		if b.lru[base+i] > max {
			max = b.lru[base+i]
		}
	}
	b.lru[base+w] = max + 1
}
