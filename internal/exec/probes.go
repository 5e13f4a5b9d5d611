package exec

// Probes is a simulator's two observation hooks, embedded in its State so
// that its Step, the run loop and branch handlers fire them alike: a PC
// sampler, called with the pre-execution pc every strideth retired
// instruction (internal/profile's sampler), and a branch edge probe,
// called with (branch pc, taken) every strideth conditional-branch
// resolution (its edge profiler).  Off, each costs one predictable branch.
// A hook runs inside the simulator, so it must not call back into the
// machine's locked API.
type Probes struct {
	sampleFn                func(pc uint64)
	sampleEvery, sampleLeft uint64
	edgeFn                  func(pc uint64, taken bool)
	edgeEvery, edgeLeft     uint64
}

// SetSampler installs fn to be called with the pre-execution program
// counter every stride retired instructions; nil fn or zero stride
// disables sampling.
func (p *Probes) SetSampler(fn func(pc uint64), stride uint64) {
	if fn == nil || stride == 0 {
		fn, stride = nil, 0
	}
	p.sampleFn, p.sampleEvery, p.sampleLeft = fn, stride, stride
}

// SetEdgeProbe installs fn to be called with (branch PC, taken) every
// stride conditional-branch resolutions; nil fn or zero stride disables
// the probe.
func (p *Probes) SetEdgeProbe(fn func(pc uint64, taken bool), stride uint64) {
	if fn == nil || stride == 0 {
		fn, stride = nil, 0
	}
	p.edgeFn, p.edgeEvery, p.edgeLeft = fn, stride, stride
}

// Sampling reports whether a sampler is installed; Edging, an edge probe.
func (p *Probes) Sampling() bool { return p.sampleEvery != 0 }
func (p *Probes) Edging() bool   { return p.edgeEvery != 0 }

// SampleDue counts one retired instruction toward the installed sampler
// and reports whether the sampler fires on it: the caller brings the
// counters the sampler may read up to date, then calls Sample.
func (p *Probes) SampleDue() bool {
	if p.sampleLeft--; p.sampleLeft != 0 {
		return false
	}
	p.sampleLeft = p.sampleEvery
	return true
}

// Sample calls the sampler with pc.
func (p *Probes) Sample(pc uint64) { p.sampleFn(pc) }

// Edge is the countdown-gated probe call at conditional-branch resolution.
func (p *Probes) Edge(pc uint64, taken bool) {
	// Split guard/slow-path so the no-probe case inlines into the branch
	// handlers: with no edge probe attached this is a loaded-field test,
	// not a call, and branch resolution is the threaded engine's hottest
	// non-ALU operation.
	if p.edgeEvery == 0 {
		return
	}
	p.edgeSlow(pc, taken)
}

func (p *Probes) edgeSlow(pc uint64, taken bool) {
	if p.edgeLeft--; p.edgeLeft == 0 {
		p.edgeLeft = p.edgeEvery
		p.edgeFn(pc, taken)
	}
}
