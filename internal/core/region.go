package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
	"repro/internal/trace"
)

// region is one occupant of simulated memory below codeNext, [start, end):
// the halt vector (neither fn nor trap), a trap vector (trap), or an
// installed function (fn, and its predecoded body under the threaded
// engine).  Machine.regions holds them sorted by address and is the one
// description of the code region: free code space is the gaps between
// entries, FuncSpans is a copy of the named ones, and the run loop finds
// bodies and trap handlers in it.  An install inserts its entry when it
// reserves the space, so a callee installed on the way sees it taken, and
// names it when it completes: an entry without a name is a reservation,
// which nothing outside install ever sees.
type region struct {
	start, end uint64
	name       string
	fn         *Func
	body       *exec.Body
	trap       TrapHandler
}

// find returns the index of the first entry ending above addr — the one
// holding addr, if any.  A manual binary search: sort.Search's per-probe
// closure call is measurable on the run loop's body lookup.  Caller holds
// mu or spanMu.
func (m *Machine) find(addr uint64) int {
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.regions[mid].end <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds r to the table.  Writers hold mu and spanMu; FuncSpans copies
// the table under spanMu alone, so the PC-sampling profiler can symbolize
// from inside the run loop (which holds mu), and a change nobody
// symbolizes after costs no copy.  Lock order: mu, then spanMu.
func (m *Machine) insert(r region) {
	m.spanMu.Lock()
	m.regions = slices.Insert(m.regions, m.find(r.start), r)
	m.spans.Store(nil)
	m.spanMu.Unlock()
}

// place reserves a 16-aligned code span of size bytes for f: first fit
// from the lowest gap between installed functions, else the bump pointer.
// Caller holds mu.
func (m *Machine) place(f *Func, size uint64) (uint64, error) {
	addr, i := m.codeBase, m.find(m.codeBase)
	for ; i < len(m.regions) && m.regions[i].start-addr < size; i++ {
		addr = m.regions[i].end
	}
	end := addr + size
	if i == len(m.regions) && end > m.heapNext-(m.heapEnd-m.heapNext) && end > m.mem.Size()/2 {
		return 0, fmt.Errorf("machine: code region exhausted")
	}
	m.insert(region{start: addr, end: end, fn: f})
	m.setCodeNext()
	return addr, nil
}

// complete names f's reservation and attaches its predecoded body: the
// install is visible from here on.  Caller holds mu.
func (m *Machine) complete(f *Func, name string, b *exec.Body) {
	r := &m.regions[m.find(f.addr)]
	m.spanMu.Lock()
	r.name, r.body = name, b
	m.spans.Store(nil)
	m.spanMu.Unlock()
	m.bodyGen++
}

// remove is the one way out of the code region, as Machine.install is the
// one way in: a unit's unload (Unload, Uninstall, Release) and a rejected
// install take f's entry out here, with its body, and forget where f was.
// Caller holds mu.
func (m *Machine) remove(f *Func) {
	i := m.find(f.addr)
	r := m.regions[i]
	if r.body == m.lastBody {
		m.lastBody = nil
	}
	m.spanMu.Lock()
	m.regions = slices.Delete(m.regions, i, i+1)
	m.spans.Store(nil)
	m.spanMu.Unlock()
	m.setCodeNext()
	m.bodyGen++
	f.addr, f.plan = 0, callPlan{} // f forgets where it was
	if r.name == "" {
		return // a reservation: it never was resident
	}
	if trace.Recording() {
		trace.Record(trace.KindEvict, f.BackendName, f.Name, f.lifecycleFlow(),
			time.Now(), 0, trace.Attrs{Bytes: int64(r.end - r.start)})
	}
}

// setCodeNext moves the bump pointer to the top entry's end.  Caller holds
// mu.
func (m *Machine) setCodeNext() {
	m.codeNext = max(m.codeBase, m.regions[len(m.regions)-1].end)
	m.codeNextPub.Store(m.codeNext)
}

// vector returns the trap vector at pc, the halt vector being entry 0, or
// nil: vectors sit 16 bytes apart from trapBase, so the entry is an index.
// Caller holds mu.
func (m *Machine) vector(pc uint64) *region {
	if pc < trapBase || pc >= m.trapNext || pc%16 != 0 {
		return nil
	}
	return &m.regions[(pc-trapBase)/16]
}

// FuncSpans returns the current install-time address map as an immutable,
// Start-sorted slice.  It never takes mu, so it is safe to call from a
// sampling hook running inside the simulator; the first call after the map
// changed copies it under spanMu, later calls are one atomic load.
func (m *Machine) FuncSpans() []FuncSpan {
	if p := m.spans.Load(); p != nil {
		return *p
	}
	m.spanMu.Lock()
	defer m.spanMu.Unlock()
	if p := m.spans.Load(); p != nil {
		return *p
	}
	cp := make([]FuncSpan, 0, len(m.regions))
	for _, r := range m.regions {
		if r.name != "" {
			cp = append(cp, FuncSpan{Start: r.start, End: r.end, Name: r.name})
		}
	}
	m.spans.Store(&cp)
	return cp
}

// entryBody is bodyAt(p.entry) and the index of the entry in that body,
// without the search while no body has come or gone since the plan last
// looked: a rotation of warm callers always misses lastBody, and its entry
// is where every call of a function starts.  Caller holds mu.
func (m *Machine) entryBody(p *callPlan) (*exec.Body, int) {
	if p.gen != m.bodyGen {
		p.body, p.idx = m.bodyAt(p.entry), 0
		if p.body != nil {
			p.idx = p.body.IndexOf(p.entry)
		}
		p.gen = m.bodyGen
	}
	return p.body, p.idx
}

// bodyAt finds the predecoded body containing pc (word-aligned), or nil.
// The single-entry lastBody cache makes the common call pattern — many
// dispatches into the same hot function — a pointer compare instead of a
// search.  Caller holds mu (the run loop does).
func (m *Machine) bodyAt(pc uint64) *exec.Body {
	if b := m.lastBody; b != nil && b.Contains(pc) {
		return b
	}
	i := m.find(pc)
	if i == len(m.regions) {
		return nil
	}
	b := m.regions[i].body
	if b == nil || !b.Contains(pc) {
		return nil
	}
	m.lastBody = b
	return b
}
