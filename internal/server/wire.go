package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
)

// The request body's fields, in requestFields order.
const (
	fieldTenant = iota
	fieldLang
	fieldSource
	fieldEntry
	fieldKey
	fieldArgs
	fieldFuel
	fieldRequestID
	fieldPriority
)

// requestFields are request's JSON names.
var requestFields = [...]string{
	fieldTenant: "tenant", fieldLang: "lang", fieldSource: "source", fieldEntry: "entry",
	fieldKey: "key", fieldArgs: "args", fieldFuel: "fuel", fieldRequestID: "request_id",
	fieldPriority: "priority",
}

// maxDepth is encoding/json's nesting limit; the body's object is level 1.
const maxDepth = 10000

// decodeRequest parses body into a zero req as json.Unmarshal(body, req)
// would — it accepts the same bodies and yields the same request, which
// FuzzDecodeRequest holds it to — in one pass and without reflection.  text
// is space for unescaped strings; it comes back, grown, for reuse.
func decodeRequest(body []byte, req *request, text []byte) ([]byte, error) {
	d := reqDecoder{data: body, text: text}
	err := d.request(req)
	return d.text, err
}

// reqDecoder reads one request body.
type reqDecoder struct {
	data []byte
	off  int
	text []byte
}

func (d *reqDecoder) fail(what string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of input: %s", what)
	}
	return fmt.Errorf("%s at offset %d (%q)", what, d.off, d.data[d.off])
}

// peek is the next byte, 0 at the end.
func (d *reqDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *reqDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *reqDecoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.fail("want " + lit)
	}
	d.off += len(lit)
	return nil
}

// request is the whole body: one object, or null (which leaves req zero).
func (d *reqDecoder) request(req *request) error {
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.members(1, func(key []byte) error { return d.field(req, key) })
	case 'n':
		err = d.literal("null")
	default:
		err = d.fail("want an object")
	}
	if err != nil {
		return err
	}
	d.space()
	if d.off < len(d.data) {
		return d.fail("data after the object")
	}
	return nil
}

// members reads the object or array at d.off, calling each for every
// member once its key (nil in an array) is read: each reads the value.
// depth is the container's level.
func (d *reqDecoder) members(depth int, each func(key []byte) error) error {
	if depth > maxDepth {
		return d.fail("exceeded max depth")
	}
	open, end := d.data[d.off], byte(']')
	if open == '{' {
		end = '}'
	}
	d.off++
	d.space()
	if d.peek() == end {
		d.off++
		return nil
	}
	for {
		var key []byte
		if open == '{' {
			if d.peek() != '"' {
				return d.fail("want a field name")
			}
			var err error
			if key, err = d.str(); err != nil {
				return err
			}
			d.space()
			if d.peek() != ':' {
				return d.fail("want ':'")
			}
			d.off++
			d.space()
		}
		if err := each(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
		case end:
			d.off++
			return nil
		default:
			return d.fail("want ',' or '" + string(end) + "'")
		}
	}
}

// field reads the value of the member named key.  Names match as
// encoding/json matches a struct field's: exactly, else under Unicode
// simple case folding.
func (d *reqDecoder) field(req *request, key []byte) error {
	f := 0
	for f < len(requestFields) && string(key) != requestFields[f] {
		f++
	}
	if f == len(requestFields) {
		f = 0
		for f < len(requestFields) && !foldEqual(key, requestFields[f]) {
			f++
		}
	}
	switch f {
	case fieldTenant:
		return d.setString(&req.Tenant)
	case fieldLang:
		return d.setString(&req.Lang)
	case fieldSource:
		return d.setString(&req.Source)
	case fieldEntry:
		return d.setString(&req.Entry)
	case fieldKey:
		return d.setString(&req.Key)
	case fieldRequestID:
		return d.setString(&req.RequestID)
	case fieldArgs:
		return d.args(&req.Args)
	case fieldFuel:
		return d.fuel(&req.Fuel)
	case fieldPriority:
		return d.priority(&req.Priority)
	}
	return d.skip(2)
}

// foldEqual reports whether key folds to the ASCII name as encoding/json
// folds both: ASCII letters to upper case, any other rune to the smallest
// of its simple fold orbit ("ſ" is "S", the Kelvin sign "K").
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		i += n
		if upper(r) != upper(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upper(r rune) rune {
	if 'a' <= r && r <= 'z' {
		r -= 'a' - 'A'
	}
	return r
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// setString stores a string value; null leaves *dst as it was, as
// encoding/json leaves a string.  The language names share the constants.
func (d *reqDecoder) setString(dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		switch string(s) {
		case LangTinyC:
			*dst = LangTinyC
		case LangVasm:
			*dst = LangVasm
		default:
			*dst = string(s)
		}
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.fail("want a string")
}

// fuel stores an unsigned integer; null leaves it as it was.
func (d *reqDecoder) fuel(dst *uint64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	s, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	if err != nil {
		return fmt.Errorf("fuel %s: want an unsigned integer", s)
	}
	*dst = n
	return nil
}

// priority stores an int; null clears it.
func (d *reqDecoder) priority(dst **int) error {
	if d.peek() == 'n' {
		*dst = nil
		return d.literal("null")
	}
	s, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(s), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("priority %s: want an integer", s)
	}
	if *dst == nil {
		*dst = new(int)
	}
	**dst = int(n)
	return nil
}

// args stores an array of numbers, each a JSON number or a string holding
// one; null clears it.  Like encoding/json it decodes into the slice an
// earlier "args" left, growing it as append does, and a null element keeps
// what the slice held there.
func (d *reqDecoder) args(dst *[]json.Number) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.fail("args: want an array")
	}
	args, i := *dst, 0
	err := d.members(2, func([]byte) error {
		if i == cap(args) {
			args = append(args, "")[:i]
		}
		if i == len(args) {
			args = args[:i+1]
		}
		i++
		return d.arg(&args[i-1])
	})
	if i == 0 {
		args = []json.Number{}
	}
	*dst = args[:i]
	return err
}

func (d *reqDecoder) arg(dst *json.Number) error {
	var s []byte
	var err error
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		if s, err = d.str(); err == nil && (len(s) == 0 || numberLen(s) != len(s)) {
			err = fmt.Errorf("args: %q is not a number", s)
		}
	default:
		s, err = d.number()
	}
	if err == nil {
		*dst = json.Number(s)
	}
	return err
}

// number consumes a JSON number and returns its text.
func (d *reqDecoder) number() ([]byte, error) {
	n := numberLen(d.data[d.off:])
	if n == 0 {
		return nil, d.fail("want a number")
	}
	d.off += n
	return d.data[d.off-n : d.off], nil
}

// numberLen is the length of the JSON number b starts with, 0 if none:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i + 1)
	default:
		return 0
	}
	if i+1 < len(b) && b[i] == '.' && '0' <= b[i+1] && b[i+1] <= '9' {
		i = digits(i + 2)
	}
	if i+1 < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if b[j] == '+' || b[j] == '-' {
			j++
		}
		if j < len(b) && '0' <= b[j] && b[j] <= '9' {
			i = digits(j + 1)
		}
	}
	return i
}

// skip consumes any value; depth is the level a container there opens.
func (d *reqDecoder) skip(depth int) error {
	switch d.peek() {
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	case '{', '[':
		return d.members(depth, func([]byte) error { return d.skip(depth + 1) })
	}
	_, err := d.number()
	return err
}

// str consumes a string and returns its contents unescaped, invalid UTF-8
// and lone surrogates replaced by U+FFFD as encoding/json replaces them.
// The bytes are the body's own when nothing needed rewriting, d.text's
// otherwise; either way they last until the next call.
func (d *reqDecoder) str() ([]byte, error) {
	b := d.data
	start := d.off + 1
	for i := start; i < len(b); i++ {
		if c := b[i]; c == '"' {
			d.off = i + 1
			return b[start:i], nil
		} else if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			d.text = append(d.text[:0], b[start:i]...)
			d.off = i
			return d.unescape()
		}
	}
	d.off = len(b)
	return nil, d.fail("unterminated string")
}

// unescape finishes a string whose first rewrite is at d.off, onto d.text.
func (d *reqDecoder) unescape() ([]byte, error) {
	b, t, i := d.data, d.text, d.off
	defer func() { d.text = t }()
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			return t, nil
		case c < ' ':
			d.off = i
			return nil, d.fail("control character in string")
		case c == '\\' && i+1 < len(b) && b[i+1] != 'u':
			k := strings.IndexByte(`"\/bfnrt`, b[i+1])
			if k < 0 {
				d.off = i
				return nil, d.fail("bad escape")
			}
			t = append(t, "\"\\/\b\f\n\r\t"[k])
			i += 2
		case c == '\\':
			r := hex4(b[i:])
			if r < 0 {
				d.off = i
				return nil, d.fail("bad \\u escape")
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(b[i:])); pair != utf8.RuneError {
					r = pair
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			t = utf8.AppendRune(t, r)
		case c < utf8.RuneSelf:
			t = append(t, c)
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			t = utf8.AppendRune(t, r)
			i += n
		}
	}
	d.off = len(b)
	return nil, d.fail("unterminated string")
}

// hex4 is the rune a \uXXXX escape at the start of b spells, -1 if none.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// appendExecReply appends the /v1/exec success body — request_id, key,
// shard, cached, durable, result, result_type, cycles, insns, wall_ns — as
// json.NewEncoder(w).Encode wrote it from a struct of those fields
// (TestExecReplyMatchesEncodingJSON holds it to that), except that a result
// encoding/json refuses, NaN or an infinity, is the string "NaN", "+Inf"
// or "-Inf".
func appendExecReply(b []byte, reqID string, cr *compileResult, er *execResult) []byte {
	b = append(b, `{"request_id":`...)
	b = appendString(b, reqID)
	b = append(b, `,"key":`...)
	b = appendString(b, cr.key)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(cr.shard.id), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cr.cached)
	b = append(b, `,"durable":`...)
	b = strconv.AppendBool(b, cr.durable)
	b = append(b, `,"result":`...)
	b = appendResult(b, er.value)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendUint(b, er.stats.Cycles, 10)
	b = append(b, `,"insns":`...)
	b = strconv.AppendUint(b, er.stats.Insns, 10)
	b = append(b, `,"wall_ns":`...)
	b = strconv.AppendInt(b, er.wall.Nanoseconds(), 10)
	return append(b, "}\n"...)
}

// appendResult appends a call result and, after it, its result_type.
func appendResult(b []byte, v core.Value) []byte {
	typ := v.T.Letter()
	switch v.T {
	case core.TypeV:
		b, typ = append(b, "null"...), "void"
	case core.TypeF:
		b = appendFloat(b, float64(v.Float32()), 32)
	case core.TypeD:
		b = appendFloat(b, v.Float64(), 64)
	case core.TypeU, core.TypeUL, core.TypeP:
		b = strconv.AppendUint(b, v.Uint(), 10)
	default:
		b = strconv.AppendInt(b, v.Int(), 10)
	}
	b = append(b, `,"result_type":"`...)
	b = append(b, typ...)
	return append(b, '"')
}

// appendFloat is encoding/json's float encoding (ES6 number formatting)
// with non-finite values as strings.
func appendFloat(b []byte, f float64, bits int) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	}
	format, abs := byte('f'), math.Abs(f)
	if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-09 is e-9.
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string.  Printable ASCII that
// encoding/json would not escape is copied; anything else — a client's
// request ID may hold it — goes through encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
