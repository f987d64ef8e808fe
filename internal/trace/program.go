package trace

import (
	"math"

	"repro/internal/isa"
	"repro/internal/rng"
)

// loopSlots is the size of the per-program static-loop-branch counter
// table. Loop branches hash into it; collisions merely blur two loops
// together, which is harmless.
const loopSlots = 512

// branchKind classifies a static branch site.
type branchKind uint8

const (
	brBiased branchKind = iota
	brLoop
	brRandom
)

// Program is a deterministic infinite instruction stream instantiating a
// Profile for one hardware context. All state is plain data so a Program
// can be cloned by value; a clone replays an identical future stream.
type Program struct {
	prof *Profile // immutable, shared between clones
	tid  int
	seed uint64

	r   rng.PRNG
	seq uint64

	phase     int // index into prof.Phases
	phaseLeft int // dynamic instructions remaining in this phase

	offset   uint64 // word offset of the next instruction in the region
	heapPtr  uint64 // current streaming pointer
	loopCnt  [loopSlots]uint16
	lastDest uint64 // seq of the most recent register-writing instruction

	// depLogQ caches math.Log(1-1/MeanDepDist) per phase (0 marks a
	// mean <= 1, where Geometric returns 1 without drawing). Shared
	// immutably between clones; computed once in NewProgram so the
	// per-instruction dependency draw skips the math.Log.
	depLogQ []float64
}

// NewProgram instantiates prof for thread tid with the given seed. The
// thread id is folded into address-space bases so co-scheduled programs
// occupy disjoint code and data regions (they still contend for shared
// cache capacity).
func NewProgram(prof *Profile, tid int, seed uint64) *Program {
	if err := prof.Validate(); err != nil {
		panic("trace: " + err.Error())
	}
	root := rng.New(seed ^ (uint64(tid+1) * 0x5851f42d4c957f2d))
	p := &Program{
		prof: prof,
		tid:  tid,
		seed: seed,
		r:    root.Split(),
	}
	p.depLogQ = make([]float64, len(prof.Phases))
	for i := range prof.Phases {
		if m := prof.Phases[i].MeanDepDist; m > 1 {
			p.depLogQ[i] = math.Log(1 - 1/m)
		}
	}
	p.enterPhase(0)
	return p
}

// Profile returns the application profile this program runs.
func (p *Program) Profile() *Profile { return p.prof }

// Seq returns the number of instructions generated so far.
func (p *Program) Seq() uint64 { return p.seq }

// PhaseName returns the name of the current phase, for diagnostics.
func (p *Program) PhaseName() string { return p.prof.Phases[p.phase].Name }

// Clone returns an independent copy that replays the same future stream.
func (p *Program) Clone() *Program {
	cp := *p
	return &cp
}

func (p *Program) enterPhase(idx int) {
	p.phase = idx
	ph := &p.prof.Phases[idx]
	p.phaseLeft = p.r.Geometric(float64(ph.MeanLen))
	p.offset = 0
	p.heapPtr = 0
}

// codeBase returns the base word address of the current phase's code
// region: distinct per (thread, phase) so phases have distinct I-cache
// footprints.
func (p *Program) codeBase() uint64 {
	return (uint64(p.tid+1) << 40) | (uint64(p.phase+1) << 28)
}

// dataBase returns the base byte address of the current phase's data
// region.
func (p *Program) dataBase() uint64 {
	return (uint64(p.tid+1) << 52) | (uint64(p.phase+1) << 44)
}

// pc returns the word address of the next instruction.
func (p *Program) pc() uint64 { return p.codeBase() + p.offset }

// hashStatic derives a stable per-static-PC value, independent of the
// dynamic stream, so static properties (branch kind, bias direction,
// loop period, jump target) are consistent across executions of the same
// instruction — which is what lets predictors and the BTB learn.
func (p *Program) hashStatic(pc uint64, salt uint64) uint64 {
	z := pc ^ (p.seed * 0x9e3779b97f4a7c15) ^ (salt * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next produces the next instruction of the stream.
func (p *Program) Next() isa.Inst {
	ph := &p.prof.Phases[p.phase]
	p.seq++
	p.phaseLeft--
	if p.phaseLeft <= 0 {
		p.enterPhase((p.phase + 1) % len(p.prof.Phases))
		ph = &p.prof.Phases[p.phase]
	}

	in := isa.Inst{Seq: p.seq, PC: p.pc()}

	// The instruction class is a static property of the PC — real code
	// has fixed branch sites and load sites — so predictors and the BTB
	// see learnable structure. Only syscalls are dynamic (a static
	// syscall site inside a loop would fire every iteration).
	if p.r.Bool(ph.SyscallRate) {
		in.Class = isa.Syscall
	} else {
		switch p.classAt(in.PC, ph) {
		case isa.Branch:
			p.genBranch(&in, ph)
		case isa.Jump:
			p.genJump(&in, ph)
		case isa.Load:
			in.Class = isa.Load
			in.HasDst = true
			in.Addr = p.genAddr(ph)
		case isa.Store:
			in.Class = isa.Store
			in.Addr = p.genAddr(ph)
		default:
			p.genCompute(&in, ph)
		}
	}

	p.genDeps(&in, ph)
	if in.HasDst {
		p.lastDest = p.seq
	}

	// Advance control flow.
	switch {
	case in.Class == isa.Branch && in.Taken, in.Class == isa.Jump:
		p.offset = in.Target - p.codeBase()
	default:
		p.offset++
		if p.offset >= ph.CodeWords {
			p.offset = 0
		}
	}
	return in
}

// classAt returns the coarse static class of the instruction at pc.
func (p *Program) classAt(pc uint64, ph *Phase) isa.Class {
	h := p.hashStatic(pc, 4)
	v := float64(h>>40) / float64(1<<24) // uniform in [0,1), stable per PC
	switch {
	case v < ph.BranchFrac:
		return isa.Branch
	case v < ph.BranchFrac+ph.JumpFrac:
		return isa.Jump
	case v < ph.BranchFrac+ph.JumpFrac+ph.LoadFrac:
		return isa.Load
	case v < ph.BranchFrac+ph.JumpFrac+ph.LoadFrac+ph.StoreFrac:
		return isa.Store
	default:
		return isa.IntALU // refined by genCompute
	}
}

func (p *Program) genCompute(in *isa.Inst, ph *Phase) {
	in.HasDst = true
	h := p.hashStatic(in.PC, 5)
	fp := float64(h&0xffff)/65536 < ph.FPFrac
	v := float64((h>>16)&0xffff) / 65536
	if fp {
		switch {
		case v < ph.FPDivFrac:
			in.Class = isa.FPDiv
		case v < ph.FPDivFrac+ph.FPMulFrac:
			in.Class = isa.FPMult
		default:
			in.Class = isa.FPAdd
		}
		return
	}
	switch {
	case v < ph.IntDivFrac:
		in.Class = isa.IntDiv
	case v < ph.IntDivFrac+ph.IntMulFrac:
		in.Class = isa.IntMult
	default:
		in.Class = isa.IntALU
	}
}

// genAddr produces a data address per the phase's reference mixture.
func (p *Program) genAddr(ph *Phase) uint64 {
	base := p.dataBase()
	switch v := p.r.Float64(); {
	case v < ph.SeqFrac:
		// Streaming: walk forward 8 bytes at a time through the
		// footprint, wrapping.
		p.heapPtr += 8
		if p.heapPtr >= ph.DataFootprint {
			p.heapPtr = 0
		}
		return base + p.heapPtr
	case v < ph.SeqFrac+ph.StackFrac:
		// Stack-local: a 256-byte hot region, always cache-resident.
		return base + ph.DataFootprint + p.r.Uint64n(256)
	default:
		// Skewed over the footprint: most references land in a hot
		// eighth of the working set (real applications have locality
		// even in "random" access phases), the rest anywhere. Miss
		// rates still grow with footprint, but between the L1/L2/DRAM
		// regimes rather than pinned at the worst case.
		hot := ph.DataFootprint / 8
		if hot < 4096 {
			hot = min(4096, ph.DataFootprint)
		}
		if p.r.Bool(0.7) {
			return base + p.r.Uint64n(hot)
		}
		return base + p.r.Uint64n(ph.DataFootprint)
	}
}

// branchSite resolves the static properties of the branch at pc.
// Backward-target sites (loop latches) are biased or loop-patterned;
// random (data-dependent) behaviour is confined to forward-target sites,
// as in real code, where if-else tests are the unpredictable branches —
// a hot loop latch that flipped coins would dominate the mispredict
// budget of an otherwise predictable program.
func (p *Program) branchSite(pc uint64, ph *Phase) (kind branchKind, biasTaken bool, period uint16) {
	h := p.hashStatic(pc, 1)
	v := float64(h>>40) / float64(1<<24)
	if p.targetBackward(pc) {
		if v*(ph.BiasedW+ph.LoopW) < ph.BiasedW {
			kind = brBiased
		} else {
			kind = brLoop
		}
	} else {
		if v*(ph.BiasedW+ph.RandomW) < ph.BiasedW {
			kind = brBiased
		} else {
			kind = brRandom
		}
	}
	biasTaken = h&0xff < 179 // ~70% of biased branches are taken-biased
	period = uint16(4 + (h>>8)%61)
	return
}

// targetBackward reports whether the branch at pc has a backward target
// (shared decision with branchTarget).
func (p *Program) targetBackward(pc uint64) bool {
	return p.hashStatic(pc, 2)&3 != 0
}

// branchTarget derives the stable target of the taken branch at pc:
// usually a short backward jump (loop-shaped), occasionally a longer
// forward hop within the region.
func (p *Program) branchTarget(pc uint64, ph *Phase) uint64 {
	h := p.hashStatic(pc, 2)
	off := pc - p.codeBase()
	if p.targetBackward(pc) { // 75%: backward, loop-shaped
		// Loop bodies are at least 8 instructions: tighter loops would
		// make the branch itself dominate the dynamic stream.
		back := 8 + h>>2%57
		if back > off {
			back = off
		}
		return p.codeBase() + off - back
	}
	fwd := 1 + h>>2%256
	tgt := off + fwd
	if tgt >= ph.CodeWords {
		tgt -= ph.CodeWords
	}
	return p.codeBase() + tgt
}

func (p *Program) genBranch(in *isa.Inst, ph *Phase) {
	in.Class = isa.Branch
	kind, biasTaken, period := p.branchSite(in.PC, ph)
	switch kind {
	case brBiased:
		if biasTaken {
			in.Taken = p.r.Bool(0.95)
		} else {
			in.Taken = p.r.Bool(0.05)
		}
	case brLoop:
		slot := p.hashStatic(in.PC, 3) % loopSlots
		cnt := p.loopCnt[slot]
		in.Taken = (cnt % period) != period-1
		p.loopCnt[slot] = cnt + 1
	case brRandom:
		// Data-dependent forward test, skewed not-taken as real
		// if-else branches are.
		in.Taken = p.r.Bool(0.35)
	}
	if in.Taken {
		in.Target = p.branchTarget(in.PC, ph)
	}
}

func (p *Program) genJump(in *isa.Inst, ph *Phase) {
	in.Class = isa.Jump
	in.Taken = true
	in.Target = p.branchTarget(in.PC, ph)
}

// genDeps assigns register dependencies. The producer distance is
// geometric with the phase's mean; memory-phase streams with short
// distances model pointer chasing.
func (p *Program) genDeps(in *isa.Inst, ph *Phase) {
	if in.Class == isa.Syscall || in.Class == isa.Nop {
		return
	}
	if p.r.Bool(ph.DepProb) {
		in.Dep1 = p.depDistance(ph)
	}
	if in.Class != isa.Jump && p.r.Bool(ph.DepProb*0.6) {
		in.Dep2 = p.depDistance(ph)
	}
}

func (p *Program) depDistance(ph *Phase) uint32 {
	// Same stream as p.r.Geometric(ph.MeanDepDist): logQ == 0 mirrors
	// Geometric's mean<=1 early return (constant 1, no draw consumed).
	d := uint32(1)
	if lq := p.depLogQ[p.phase]; lq != 0 {
		d = uint32(p.r.GeometricLogQ(lq))
	}
	if uint64(d) > p.seq-1 {
		if p.seq <= 1 {
			return 0
		}
		d = uint32(p.seq - 1)
	}
	return d
}

// WrongPathInst synthesises one wrong-path instruction for the pipeline
// to inject after a detected misprediction. It draws from the current
// phase's class mix but uses the caller's PRNG and does not advance the
// program — the architectural stream is untouched. Wrong-path memory
// references land in the phase's footprint, so wrong-path execution
// pollutes (or prefetches into) the caches, as on real hardware.
func (p *Program) WrongPathInst(w *rng.PRNG, pc uint64) isa.Inst {
	ph := &p.prof.Phases[p.phase]
	in := isa.Inst{Seq: 0, PC: pc, Class: isa.IntALU, HasDst: true}
	u := w.Float64()
	switch {
	case u < ph.BranchFrac:
		in.Class = isa.Branch
		in.HasDst = false
	case u < ph.BranchFrac+ph.LoadFrac:
		in.Class = isa.Load
		in.Addr = p.dataBase() + w.Uint64n(ph.DataFootprint)
	case u < ph.BranchFrac+ph.LoadFrac+ph.StoreFrac:
		in.Class = isa.Store
		in.HasDst = false
		in.Addr = p.dataBase() + w.Uint64n(ph.DataFootprint)
	default:
		if w.Bool(ph.FPFrac) {
			in.Class = isa.FPAdd
		}
	}
	if w.Bool(0.5) {
		in.Dep1 = uint32(1 + w.Intn(8))
	}
	return in
}
