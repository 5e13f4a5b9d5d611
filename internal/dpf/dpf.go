package dpf

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/alpha"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/sparc"
)

// DPF is the paper's dynamic packet filter engine: when filters are
// installed, the whole filter set is merged into a trie and compiled to
// machine code with VCODE.  Two of the paper's specializations are
// implemented:
//
//   - value dispatch is specialized on the number of outgoing edges:
//     a short sequential search for few values, a binary search for
//     sparse sets, and a runtime-chosen multiplicative hash over a data
//     table for larger sets;
//   - because the number and value of keys are known at code-generation
//     time, the hash function is selected to be collision-free and the
//     collision checks a static system would need are never emitted.
//
// Classification runs the generated code on the cycle-counted MIPS
// simulator; Classify reports the cycles the generated code cost.
type DPF struct {
	mu      sync.Mutex
	machine *core.Machine
	backend core.Backend
	cpu     core.CPU
	conf    mem.MachineConfig

	// cache holds compiled classifiers keyed by filter-spec hash, so
	// re-installing a previously seen filter set (the demultiplexer
	// flipping between configurations) reuses its machine code instead
	// of recompiling; eviction unloads the stale classifier's unit, code
	// and dispatch tables together.  When nil, every Install recompiles
	// into a Mark/Release arena (the paper's original discipline).
	cache *codecache.Cache

	fn      *core.Func
	mark    core.Mark
	marked  bool
	pktAddr uint64
	pktCap  int

	// MinHashEdges tunes when hash dispatch takes over from binary
	// search (exposed for the ablation benchmark).
	MinHashEdges int
	// DisableHash forces comparison-based dispatch.
	DisableHash bool
}

// NewDPF builds an engine on a fresh simulated MIPS machine using the
// given cost configuration (Table 3 uses mem.DEC5000, matching the
// paper's DECstation).
func NewDPF(conf mem.MachineConfig) (*DPF, error) {
	return NewDPFTarget("mips", conf)
}

// NewDPFTarget builds the engine on any of the three ports.  The paper's
// DPF ran only on MIPS ("our operating system only runs on MIPS
// machines"); because this compiler is written against the portable VCODE
// instruction set, it retargets for free.
func NewDPFTarget(target string, conf mem.MachineConfig) (*DPF, error) {
	var bk core.Backend
	var cpu core.CPU
	var m *mem.Memory
	var err error
	switch target {
	case "mips":
		if m, err = conf.Build(false); err != nil {
			return nil, err
		}
		bk = mips.New()
		cpu = mips.NewCPU(m)
	case "sparc":
		if m, err = conf.Build(true); err != nil {
			return nil, err
		}
		bk = sparc.New()
		cpu = sparc.NewCPU(m)
	case "alpha":
		if m, err = conf.Build(false); err != nil {
			return nil, err
		}
		bk = alpha.New()
		cpu = alpha.NewCPU(m)
	default:
		return nil, fmt.Errorf("dpf: unknown target %q", target)
	}
	mc := core.NewMachine(bk, cpu, m)
	d := &DPF{machine: mc, backend: bk, cpu: cpu, conf: conf, MinHashEdges: 6, pktCap: 4096}
	d.cache = codecache.New(codecache.Config{Machine: mc, MaxEntries: 8})
	addr, err := mc.Alloc(d.pktCap)
	if err != nil {
		return nil, err
	}
	d.pktAddr = addr
	return d, nil
}

// Name implements Engine.
func (d *DPF) Name() string { return "DPF" }

// Machine exposes the underlying simulated machine (examples print
// generated code through it).
func (d *DPF) Machine() *core.Machine { return d.machine }

// Func returns the compiled classifier.
func (d *DPF) Func() *core.Func { return d.fn }

// trie node for the merged filter set.
type trieNode struct {
	atom   Atom
	edges  []trieEdge
	accept int
}

type trieEdge struct {
	val   uint32
	child *trieNode
}

func buildTrie(filters []Filter) (*trieNode, error) {
	var root *trieNode
	for _, f := range filters {
		if len(f.Atoms) == 0 {
			return nil, fmt.Errorf("dpf: filter %d has no atoms", f.ID)
		}
		node := &root
		for i, a := range f.Atoms {
			if *node == nil {
				*node = &trieNode{atom: a, accept: 0}
			}
			n := *node
			if !sameKey(n.atom, a) {
				return nil, fmt.Errorf("dpf: filter %d diverges structurally at offset %d", f.ID, a.Off)
			}
			var e *trieEdge
			for j := range n.edges {
				if n.edges[j].val == a.Val {
					e = &n.edges[j]
					break
				}
			}
			if e == nil {
				n.edges = append(n.edges, trieEdge{val: a.Val})
				e = &n.edges[len(n.edges)-1]
			}
			if i == len(f.Atoms)-1 {
				if e.child != nil {
					return nil, fmt.Errorf("dpf: filter %d is a prefix of another filter", f.ID)
				}
				e.child = &trieNode{accept: f.ID}
			} else {
				if e.child == nil {
					e.child = &trieNode{atom: f.Atoms[i+1]}
				}
				node = &e.child
			}
		}
	}
	return root, nil
}

// DisableCache switches the engine to the paper's original discipline:
// every Install recompiles and the previous classifier's arena (code and
// dispatch tables) is released wholesale.  Used by the compile-cost
// benchmark; not reversible.
func (d *DPF) DisableCache() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache = nil
}

// CacheMetrics snapshots the classifier cache (zero Metrics when the
// cache is disabled).
func (d *DPF) CacheMetrics() codecache.Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cache == nil {
		return codecache.Metrics{}
	}
	return d.cache.Snapshot()
}

// filtersKey hashes everything that determines the generated classifier:
// the filter specs plus the dispatch-selection knobs.
func filtersKey(filters []Filter, minHashEdges int, disableHash bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dpf|%d|%v", minHashEdges, disableHash)
	for _, f := range filters {
		fmt.Fprintf(&sb, "|%d:", f.ID)
		for _, a := range f.Atoms {
			fmt.Fprintf(&sb, "%d,%d,%x,%x;", a.Off, a.Size, a.Mask, a.Val)
		}
	}
	return codecache.HashKey(sb.String())
}

// Install compiles the filter set (the paper compiles at install time)
// and makes it the active classifier.  With the cache enabled, a filter
// set seen before reactivates its resident machine code without any code
// generation; new sets compile once, each into one unit holding the
// classifier and its dispatch tables, and a stale set's unit is unloaded
// whole when the cache evicts it.
func (d *DPF) Install(filters []Filter) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cache == nil {
		return d.installFresh(filters)
	}
	fn, err := d.cache.GetOrCompile(filtersKey(filters, d.MinHashEdges, d.DisableHash),
		func() (*core.Func, error) {
			root, err := buildTrie(filters)
			if err != nil {
				return nil, err
			}
			u := d.machine.NewUnit()
			c := &dpfCompiler{d: d, a: core.NewAsm(d.backend), alloc: u.Alloc}
			fn, err := c.compile(root)
			if err == nil {
				err = u.Install(fn)
			}
			if err != nil {
				u.Unload()
				return nil, err
			}
			return fn, nil
		})
	if err != nil {
		return err
	}
	d.fn = fn
	return nil
}

// installFresh is the cache-disabled path: the previous classifier and
// its dispatch tables are reclaimed — deallocating a dynamic function
// frees all its storage (§5.2).
func (d *DPF) installFresh(filters []Filter) error {
	root, err := buildTrie(filters)
	if err != nil {
		return err
	}
	if d.marked {
		d.fn = nil
		d.machine.Release(d.mark)
	}
	d.mark = d.machine.Mark()
	d.marked = true
	c := &dpfCompiler{d: d, a: core.NewAsm(d.backend), alloc: d.machine.Alloc}
	fn, err := c.compile(root)
	if err != nil {
		return err
	}
	if err := d.machine.Install(fn); err != nil {
		return err
	}
	d.fn = fn
	return nil
}

// Classify copies the packet into simulated memory and runs the compiled
// classifier, returning its result and cycle cost.
func (d *DPF) Classify(pkt []byte) (int, uint64, error) {
	return d.ClassifyContext(context.Background(), pkt)
}

// ClassifyContext is Classify with cancellation: a classifier driven from
// a request path can bound its latency with a context deadline, and a
// compiled trie gone wrong surfaces as a typed error instead of wedging
// the packet loop.
func (d *DPF) ClassifyContext(ctx context.Context, pkt []byte) (int, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fn == nil {
		return 0, 0, fmt.Errorf("dpf: no filters installed")
	}
	if len(pkt) > d.pktCap {
		return 0, 0, fmt.Errorf("dpf: packet of %d bytes exceeds buffer", len(pkt))
	}
	if err := d.machine.Mem().WriteBytes(d.pktAddr, pkt); err != nil {
		return 0, 0, err
	}
	d.cpu.ResetStats()
	ret, err := d.machine.CallContext(ctx, d.fn, core.P(d.pktAddr), core.I(int32(len(pkt))))
	if err != nil {
		return 0, 0, err
	}
	return int(ret.Int()), d.cpu.Cycles(), nil
}

// Micros converts cycles to microseconds under the engine's machine
// configuration.
func (d *DPF) Micros(cycles uint64) float64 { return d.conf.Micros(cycles) }

// --- the compiler ---

type dpfCompiler struct {
	d *DPF
	a *core.Asm
	// alloc reserves a dispatch table: the classifier's unit's Alloc, or the
	// machine's inside installFresh's Mark/Release arena.
	alloc func(n int) (uint64, error)

	pkt  core.Reg
	plen core.Reg
	val  core.Reg
	res  core.Reg
	fail core.Label
}

func (c *dpfCompiler) compile(root *trieNode) (*core.Func, error) {
	a := c.a
	a.SetName("dpf-classify")
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		return nil, err
	}
	c.pkt, c.plen = args[0], args[1]
	if c.val, err = a.GetReg(core.Temp); err != nil {
		return nil, err
	}
	if c.res, err = a.GetReg(core.Temp); err != nil {
		return nil, err
	}
	c.fail = a.NewLabel()

	// Reject packets shorter than the header region any filter touches.
	maxOff := 0
	walk(root, func(n *trieNode) {
		if n.atom.Off+n.atom.Size > maxOff {
			maxOff = n.atom.Off + n.atom.Size
		}
	})
	a.Bltii(c.plen, int64(maxOff), c.fail)

	if err := c.node(root); err != nil {
		return nil, err
	}

	a.Bind(c.fail)
	a.Seti(c.res, 0)
	a.Reti(c.res)
	return a.End()
}

func walk(n *trieNode, f func(*trieNode)) {
	if n == nil {
		return
	}
	f(n)
	for _, e := range n.edges {
		walk(e.child, f)
	}
}

// node emits the code for one trie node: load+mask the atom, dispatch on
// the value, and recurse into the children.
func (c *dpfCompiler) node(n *trieNode) error {
	a := c.a
	if n.accept != 0 {
		a.Seti(c.res, int64(n.accept))
		a.Reti(c.res)
		return a.Err()
	}
	// val = (load)(pkt + off) [& mask].  Atom values are defined in
	// little-endian raw-load terms; on a big-endian target the portable
	// byte-swap extension restores the language's semantics.
	if n.atom.Size == 2 {
		a.Ldusi(c.val, c.pkt, int64(n.atom.Off))
	} else {
		a.Ldui(c.val, c.pkt, int64(n.atom.Off))
	}
	if c.d.backend.BigEndian() {
		if n.atom.Size == 2 {
			a.Ext("bswap2", core.TypeU, c.val, c.val)
		} else {
			a.Ext("bswap4", core.TypeU, c.val, c.val)
		}
	}
	if !n.atom.FullMask() {
		a.Andui(c.val, c.val, int64(n.atom.Mask))
	}

	switch {
	case len(n.edges) <= 3:
		return c.sequential(n.edges)
	case !c.d.DisableHash && len(n.edges) >= c.d.MinHashEdges && n.atom.Size == 2:
		if err := c.hashed(n.edges); err == nil {
			return nil
		}
		// No collision-free hash found quickly: fall back.
		return c.binary(n.edges)
	default:
		return c.binary(n.edges)
	}
}

// sequential emits a short chain of compares ("a small range of values is
// searched directly").
func (c *dpfCompiler) sequential(edges []trieEdge) error {
	a := c.a
	for _, e := range edges {
		skip := a.NewLabel()
		a.Bneui(c.val, int64(e.val), skip)
		if err := c.node(e.child); err != nil {
			return err
		}
		a.Bind(skip)
	}
	a.Jmp(c.fail)
	return a.Err()
}

// binary emits a comparison tree ("sparse values are matched using binary
// search").
func (c *dpfCompiler) binary(edges []trieEdge) error {
	sorted := append([]trieEdge(nil), edges...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].val < sorted[j-1].val; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if err := c.binaryRange(sorted); err != nil {
		return err
	}
	return c.a.Err()
}

func (c *dpfCompiler) binaryRange(edges []trieEdge) error {
	a := c.a
	if len(edges) <= 2 {
		for _, e := range edges {
			skip := a.NewLabel()
			a.Bneui(c.val, int64(e.val), skip)
			if err := c.node(e.child); err != nil {
				return err
			}
			a.Bind(skip)
		}
		a.Jmp(c.fail)
		return a.Err()
	}
	mid := len(edges) / 2
	e := edges[mid]
	hit := a.NewLabel()
	hi := a.NewLabel()
	a.Bequi(c.val, int64(e.val), hit)
	a.Bgtui(c.val, int64(e.val), hi)
	if err := c.binaryRange(edges[:mid]); err != nil {
		return err
	}
	a.Bind(hi)
	if err := c.binaryRange(edges[mid+1:]); err != nil {
		return err
	}
	a.Bind(hit)
	return c.node(e.child)
}

// hashed emits the paper's hash dispatch: a hash function chosen at code
// generation time to be collision-free over the installed keys indexes a
// key/target-id table in data memory, and because the generator knows no
// keys collided, no collision chains or checks are emitted (§4.2).  Every
// key reaching this point must identify a distinct accepting filter one
// atom deeper (true for the final dispatch level of session filters); the
// table then stores the filter IDs directly.  Non-terminal children make
// the node ineligible and the caller falls back to binary search.
func (c *dpfCompiler) hashed(edges []trieEdge) error {
	for _, e := range edges {
		if e.child == nil || e.child.accept == 0 {
			return fmt.Errorf("dpf: hash dispatch needs terminal children")
		}
	}
	size := 4
	for size < 2*len(edges) {
		size *= 2
	}
	hash, emitHash, err := chooseHash(edges, size)
	if err != nil {
		return err
	}

	// Lay the key and id tables into simulated data memory.
	table, err := c.alloc(8 * size)
	if err != nil {
		return err
	}
	memv := c.d.machine.Mem()
	for i := 0; i < size; i++ {
		// Impossible key marker (keys here are 16-bit values).
		if err := memv.Store(table+uint64(8*i), 4, 0xffffffff); err != nil {
			return err
		}
	}
	for _, e := range edges {
		h := hash(e.val)
		if err := memv.Store(table+uint64(8*h), 4, uint64(e.val)); err != nil {
			return err
		}
		if err := memv.Store(table+uint64(8*h)+4, 4, uint64(e.child.accept)); err != nil {
			return err
		}
	}

	// entry = table + 8*hash(val); if key[entry] != val: fail;
	// return id[entry].
	a := c.a
	tmp, err := a.GetReg(core.Temp)
	if err != nil {
		return err
	}
	emitHash(a, tmp, c.val)
	a.Lshui(tmp, tmp, 3)
	base, err := a.GetReg(core.Temp)
	if err != nil {
		return err
	}
	a.Setp(base, int64(table))
	a.Addp(base, base, tmp)
	a.Ldui(tmp, base, 0)
	a.Bneu(tmp, c.val, c.fail)
	a.Ldii(c.res, base, 4)
	a.Reti(c.res)
	a.PutReg(tmp)
	a.PutReg(base)
	return a.Err()
}

// chooseHash selects among several hash functions at code-generation time
// ("DPF can select among several hash functions to obtain the best
// distribution"): the cheap shift family (v >> s) & (size-1) is tried
// first, then multiplicative hashes.  It returns the host-side function
// (for table layout) and the emitter producing the same computation in
// generated code, or an error if every candidate collides.
func chooseHash(edges []trieEdge, size int) (func(uint32) uint32, func(a *core.Asm, dst, src core.Reg), error) {
	collisionFree := func(h func(uint32) uint32) bool {
		used := make(map[uint32]bool, len(edges))
		for _, e := range edges {
			x := h(e.val)
			if used[x] {
				return false
			}
			used[x] = true
		}
		return true
	}
	mask := uint32(size - 1)
	for s := uint32(0); s <= 12; s++ {
		s := s
		h := func(v uint32) uint32 { return (v >> s) & mask }
		if collisionFree(h) {
			return h, func(a *core.Asm, dst, src core.Reg) {
				if s > 0 {
					a.Rshui(dst, src, int64(s))
					a.Andui(dst, dst, int64(mask))
				} else {
					a.Andui(dst, src, int64(mask))
				}
			}, nil
		}
	}
	for _, m := range []uint32{0x9e37, 0x85eb, 0xc2b2, 0x27d4, 0x1657, 0x61c8, 0x7feb, 0x0b4b} {
		m := m
		h := func(v uint32) uint32 { return (v * m >> 16) & mask }
		if collisionFree(h) {
			return h, func(a *core.Asm, dst, src core.Reg) {
				a.Setu(dst, int64(m))
				a.Mulu(dst, src, dst)
				a.Rshui(dst, dst, 16)
				a.Andui(dst, dst, int64(mask))
			}, nil
		}
	}
	return nil, nil, fmt.Errorf("dpf: no collision-free hash function over %d keys", len(edges))
}
