package server

import (
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/tinyc"
	"repro/internal/vasm"
)

// Languages the server accepts.  Both front ends compile through the
// same VCODE pipeline onto the shard's machine: every function is
// emitted, verified and installed before the unit becomes visible.
const (
	LangVasm  = "vasm"
	LangTinyC = "tinyc"
)

// compileUnit runs the front end for lang over source on the shard's
// machine and returns the resident unit; a refused program leaves nothing
// on the machine.  It is called inside a single-flight compile (one caller
// per key): on the request's goroutine for a miss, on Recover's during warm
// restore.
func compileUnit(m *core.Machine, key, tenantName, lang, source, entry string) (*unit, error) {
	var prog *core.Unit
	switch lang {
	case LangVasm:
		p, err := vasm.Assemble(m, source)
		if err != nil {
			return nil, err
		}
		prog = p.Unit
	case LangTinyC:
		p, err := tinyc.Parse(source)
		if err != nil {
			return nil, err
		}
		c := tinyc.NewCompiler(m)
		if err := c.Compile(p); err != nil {
			return nil, err
		}
		prog = c.Unit()
		if entry == "" {
			entry = "main"
		}
	default:
		return nil, apiErr(CodeBadRequest, "unknown language %q (want %q or %q)", lang, LangVasm, LangTinyC)
	}
	// The unit lists the functions as the source declares them.
	fns := prog.Funcs()
	if entry == "" && len(fns) > 0 {
		entry = fns[0].Name
	}
	for _, f := range fns {
		if f.Name == entry {
			return &unit{
				key:        key,
				tenantName: tenantName,
				lang:       lang,
				entry:      entry,
				source:     source,
				entryFn:    f,
				prog:       prog,
			}, nil
		}
	}
	prog.Unload()
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	return nil, apiErr(CodeNotFound, "no entry function %q in program (have %v)", entry, names)
}

// buildArgs marshals the JSON request arguments against the entry
// function's signature.  Integer parameters take JSON integers, float
// parameters JSON numbers; arity or domain mismatches are bad requests,
// not execution faults.  The values are appended to out, which a caller
// with a small array to hand passes so nothing is allocated.
func buildArgs(out []core.Value, params []core.Type, args []json.Number) ([]core.Value, error) {
	if len(args) != len(params) {
		return nil, apiErr(CodeBadRequest, "entry takes %d args, got %d", len(params), len(args))
	}
	out = slices.Grow(out[:0], len(params))[:len(params)]
	for i, t := range params {
		if t.IsFloat() {
			f, err := args[i].Float64()
			if err != nil {
				return nil, apiErr(CodeBadRequest, "arg %d: %v", i, err)
			}
			if t == core.TypeF {
				out[i] = core.F(float32(f))
			} else {
				out[i] = core.D(f)
			}
			continue
		}
		n, err := args[i].Int64()
		if err != nil {
			// TypeUL/TypeP values above MaxInt64 still fit unsigned.
			if u, uerr := strconv.ParseUint(args[i].String(), 10, 64); uerr == nil && (t == core.TypeUL || t == core.TypeP) {
				if t == core.TypeUL {
					out[i] = core.UL(u)
				} else {
					out[i] = core.P(u)
				}
				continue
			}
			return nil, apiErr(CodeBadRequest, "arg %d: integer parameter %s: %v", i, t, err)
		}
		switch t {
		case core.TypeI:
			out[i] = core.I(int32(n))
		case core.TypeU:
			out[i] = core.U(uint32(n))
		case core.TypeL:
			out[i] = core.L(n)
		case core.TypeUL:
			out[i] = core.UL(uint64(n))
		case core.TypeP:
			out[i] = core.P(uint64(n))
		default:
			return nil, apiErr(CodeBadRequest, "unsupported parameter type %s at index %d", t, i)
		}
	}
	return out, nil
}

// contentKey derives the cache key for a source submission: the content
// hash covers everything that determines the generated code — language,
// entry point and source text, NUL-separated.  Keys are persisted in
// snapshots and journals, so the bytes hashed must never change.
func contentKey(lang, entry, source string) string {
	return codecache.HashKey(lang, entry, source)
}
