package profile

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// table is the one PC-keyed sample table behind both profilers.  It keeps
// the machines it is attached to and a row per sampled PC, symbolized
// eagerly through the machine's lock-free address map, so a function
// evicted between sampling and reporting keeps its attribution.  A PC
// that never resolved counts under "[evicted]" (inside the code arena) or
// "[unknown]"; a PC past the bound is counted, not attributed.  A reused
// address has one rule: the old owner's count retires under its name, and
// the new owner's row starts from zero.  Safe for concurrent use.
type table struct {
	stride uint64
	maxPCs int
	// keyPrefix, when set, names each resolved row's HotCounts key (the
	// prefix and the function's name), computed when the row is bound.
	keyPrefix string

	mu       sync.Mutex
	rows     map[uint64]*row
	retired  map[string]uint64 // events of PCs a later function took over, by their old function
	total    uint64
	dropped  uint64
	machines []*core.Machine
	hot      *HotCounts
}

// row is one PC's events; taken counts those that were taken branches.
type row struct {
	name, key string
	n, taken  uint64
}

// newTable bounds distinct-PC tracking at 65536 addresses.
func newTable(stride uint64, keyPrefix string) table {
	return table{
		stride:    stride,
		maxPCs:    1 << 16,
		keyPrefix: keyPrefix,
		rows:      make(map[uint64]*row),
		retired:   make(map[string]uint64),
	}
}

// SetHotCounts links a HotCounts table: the PC profiler joins its counts
// into reports, the edge profiler feeds it.
func (t *table) SetHotCounts(h *HotCounts) {
	t.mu.Lock()
	t.hot = h
	t.mu.Unlock()
}

// attach records m, whose hook was just set with result err, among the
// machines whose address maps a report's offsets are joined against.
func (t *table) attach(m *core.Machine, err error) error {
	if err == nil {
		t.mu.Lock()
		t.machines = append(t.machines, m)
		t.mu.Unlock()
	}
	return err
}

// detach forgets m.
func (t *table) detach(m *core.Machine) {
	t.mu.Lock()
	if i := slices.Index(t.machines, m); i >= 0 {
		t.machines = slices.Delete(t.machines, i, i+1)
	}
	t.mu.Unlock()
}

// add records one event at pc, a sample or a branch resolution.  It runs
// inside the simulator's step loop, so it symbolizes through the machine's
// lock-free address map and then takes only the table's lock.  When pc
// resolved and the table keys its rows, it returns the row's HotCounts
// key and name and the linked table.
func (t *table) add(resolve func(uint64) (string, bool), inCode func(uint64) bool, pc uint64, taken bool) (*HotCounts, string, string) {
	name, ok := resolve(pc)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	r, seen := t.rows[pc]
	switch {
	case seen:
		if ok && r.name != name {
			t.retired[r.name] += r.n
			*r = t.bind(name)
		}
	case len(t.rows) < t.maxPCs:
		r = &row{name: "[unknown]"}
		if ok {
			*r = t.bind(name)
		} else if inCode != nil && inCode(pc) {
			r.name = "[evicted]"
		}
		t.rows[pc] = r
	default:
		t.dropped++
		return nil, "", ""
	}
	r.n++
	if taken {
		r.taken++
	}
	if !ok || r.key == "" {
		return nil, "", ""
	}
	return t.hot, r.key, r.name
}

// bind starts an empty row owned by name.
func (t *table) bind(name string) row {
	if t.keyPrefix == "" {
		return row{name: name}
	}
	return row{name: name, key: t.keyPrefix + name}
}

// events returns the number of events recorded so far.
func (t *table) events() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Reset discards everything recorded.
func (t *table) Reset() {
	t.mu.Lock()
	t.rows = make(map[uint64]*row)
	t.retired = make(map[string]uint64)
	t.total, t.dropped = 0, 0
	t.mu.Unlock()
}

// register exports the table's event count, stride and distinct PCs
// through reg, under prefix and the profiler's names for them.
func (t *table) register(reg *telemetry.Registry, prefix, events, distinct string) {
	reg.GaugeFunc(prefix+events, func() float64 { return float64(t.events()) })
	reg.GaugeFunc(prefix+"stride", func() float64 { return float64(t.stride) })
	reg.GaugeFunc(prefix+distinct, func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return float64(len(t.rows))
	})
}

// sample is one row of a view.
type sample struct {
	pc, offset uint64 // offset: pc's byte offset in its function, when known
	name       string
	n, taken   uint64
}

// view is a snapshot of the table.
type view struct {
	rows           []sample          // hottest first, ties by PC
	byFunc         map[string]uint64 // events per function, retired ones included
	total, dropped uint64
	hot            *HotCounts
}

// view snapshots the table and joins each row to its function's base
// address in the attached machines' address maps.
func (t *table) view() view {
	t.mu.Lock()
	v := view{
		rows:    make([]sample, 0, len(t.rows)),
		byFunc:  make(map[string]uint64, len(t.retired)),
		total:   t.total,
		dropped: t.dropped,
		hot:     t.hot,
	}
	for name, n := range t.retired {
		v.byFunc[name] = n
	}
	for pc, r := range t.rows {
		v.rows = append(v.rows, sample{pc: pc, name: r.name, n: r.n, taken: r.taken})
		v.byFunc[r.name] += r.n
	}
	machines := slices.Clone(t.machines)
	t.mu.Unlock()

	base := make(map[string]uint64)
	for _, m := range machines {
		for _, s := range m.FuncSpans() {
			if _, ok := base[s.Name]; !ok {
				base[s.Name] = s.Start
			}
		}
	}
	for i := range v.rows {
		if b, ok := base[v.rows[i].name]; ok && v.rows[i].pc >= b {
			v.rows[i].offset = v.rows[i].pc - b
		}
	}
	sort.Slice(v.rows, func(i, j int) bool {
		if v.rows[i].n != v.rows[j].n {
			return v.rows[i].n > v.rows[j].n
		}
		return v.rows[i].pc < v.rows[j].pc
	})
	return v
}

// pct is n as a percentage of total (0 when there is nothing).
func pct(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
