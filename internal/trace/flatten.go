package trace

// Flattened returns a single-phase variant of the profile: all phases
// merged into one by MeanLen-weighted averaging of the class mix,
// reference pattern and dependency model. The flattened program has the
// same average behaviour but no temporal variation — the ablation that
// removes the signal adaptive scheduling feeds on (DESIGN.md §5).
func (p *Profile) Flattened() *Profile {
	if len(p.Phases) == 1 {
		cp := *p
		return &cp
	}
	var total float64
	for _, ph := range p.Phases {
		total += float64(ph.MeanLen)
	}
	var out Phase
	out.Name = "flattened"
	var footprint, code uint64
	var seq, stack float64
	for _, ph := range p.Phases {
		w := float64(ph.MeanLen) / total
		out.BranchFrac += float64(w * ph.BranchFrac)
		out.JumpFrac += float64(w * ph.JumpFrac)
		out.LoadFrac += float64(w * ph.LoadFrac)
		out.StoreFrac += float64(w * ph.StoreFrac)
		out.SyscallRate += float64(w * ph.SyscallRate)
		out.FPFrac += float64(w * ph.FPFrac)
		out.IntMulFrac += float64(w * ph.IntMulFrac)
		out.IntDivFrac += float64(w * ph.IntDivFrac)
		out.FPMulFrac += float64(w * ph.FPMulFrac)
		out.FPDivFrac += float64(w * ph.FPDivFrac)
		out.BiasedW += float64(w * ph.BiasedW)
		out.LoopW += float64(w * ph.LoopW)
		out.RandomW += float64(w * ph.RandomW)
		out.MeanDepDist += float64(w * ph.MeanDepDist)
		out.DepProb += float64(w * ph.DepProb)
		seq += float64(w * ph.SeqFrac)
		stack += float64(w * ph.StackFrac)
		if ph.DataFootprint > footprint {
			footprint = ph.DataFootprint
		}
		if ph.CodeWords > code {
			code = ph.CodeWords
		}
		out.MeanLen += ph.MeanLen
	}
	out.SeqFrac = seq
	out.StackFrac = stack
	out.DataFootprint = footprint
	out.CodeWords = code
	flat := &Profile{
		Name:        p.Name + "-flat",
		Class:       p.Class,
		Description: "phase-free ablation of " + p.Name,
		Phases:      []Phase{out},
	}
	if err := flat.Validate(); err != nil {
		panic("trace: flattened profile invalid: " + err.Error())
	}
	return flat
}

// FlattenedPrograms instantiates the mix with every profile flattened,
// for the phase ablation.
func (m Mix) FlattenedPrograms(n int, seed uint64) ([]*Program, error) {
	progs, err := m.Programs(n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*Program, len(progs))
	for i, p := range progs {
		out[i] = NewProgram(p.Profile().Flattened(), i, seed)
	}
	return out, nil
}
