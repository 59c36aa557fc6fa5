// The /v1/run body codec. RunRequest and RunResponse are encoded and
// decoded here, by hand, and nowhere else: the handler and the client call
// it directly, every other encoding/json caller reaches it through the
// types' MarshalJSON and UnmarshalJSON methods.
//
// The wire is encoding/json's, exactly. The encoder writes the bytes
// json.Marshal writes for a method-free struct with the same fields and
// tags: compact, map keys sorted, HTML-escaped strings. The decoder accepts
// a body iff json.NewDecoder(body).Decode into that struct accepts it, and
// yields an equal value: keys match fields case-insensitively, unknown
// fields are skipped but syntax-checked, null leaves a scalar alone and
// clears a map or slice, a repeated map-valued key merges, numbers with a
// fraction or an exponent or out of their field's range are refused, and
// bytes after the first value are not read. FuzzRunBody holds both
// directions to encoding/json.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// MarshalJSON encodes the request (see the codec contract above).
func (r RunRequest) MarshalJSON() ([]byte, error) {
	c := getCodec()
	defer c.release()
	return c.appendRunRequest(nil, &r), nil
}

// UnmarshalJSON decodes a request (see the codec contract above).
func (r *RunRequest) UnmarshalJSON(data []byte) error {
	c := getCodec()
	defer c.release()
	return c.decodeRunRequest(data, r)
}

// MarshalJSON encodes the response (see the codec contract above).
func (r RunResponse) MarshalJSON() ([]byte, error) {
	c := getCodec()
	defer c.release()
	return c.appendRunResponse(nil, &r), nil
}

// UnmarshalJSON decodes a response (see the codec contract above).
func (r *RunResponse) UnmarshalJSON(data []byte) error {
	c := getCodec()
	defer c.release()
	return c.decodeRunResponse(data, r)
}

// codec is the pooled state of one encode or decode: the body bytes, sort
// and array buffers, and the decoder's cursor. Nothing decoded points into
// it: every key, string and array is copied out.
type codec struct {
	buf  []byte   // a body read, or a response being written
	keys []string // map keys being sorted
	ints []int32  // an array being decoded

	data []byte // the input being decoded
	off  int    // the decoder's position in data

	// names interns decoded map keys and kernel names, which a daemon sees
	// over and over; it is cleared when it reaches maxNames.
	names map[string]string
}

const (
	// maxPooled is the largest buffer a codec keeps between uses.
	maxPooled = 1 << 20
	maxNames  = 256
	// maxDepth is encoding/json's nesting limit.
	maxDepth = 10000
)

var codecs = sync.Pool{New: func() any { return &codec{names: make(map[string]string)} }}

func getCodec() *codec { return codecs.Get().(*codec) }

func (c *codec) release() {
	if cap(c.buf) > maxPooled {
		c.buf = nil
	}
	if cap(c.ints) > maxPooled/4 {
		c.ints = nil
	}
	c.data = nil
	codecs.Put(c)
}

// readAll reads r to its end into the codec's buffer.
func (c *codec) readAll(r io.Reader) ([]byte, error) {
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = slices.Grow(c.buf, max(512, len(c.buf)))
		}
		n, err := r.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err == io.EOF {
			return c.buf, nil
		}
		if err != nil {
			return c.buf, err
		}
	}
}

// readRunRequest reads a whole body into the codec's buffer and decodes it.
func (c *codec) readRunRequest(body io.Reader, r *RunRequest) error {
	data, err := c.readAll(body)
	if err != nil {
		return err
	}
	return c.decodeRunRequest(data, r)
}

// ---- encoding ----

func (c *codec) appendRunRequest(b []byte, r *RunRequest) []byte {
	b = append(b, `{"kernel":`...)
	b = appendString(b, r.Kernel)
	if len(r.Args) > 0 {
		b = append(b, `,"args":`...)
		b = c.appendInt32Map(b, r.Args)
	}
	if len(r.Arrays) > 0 {
		b = append(b, `,"arrays":`...)
		b = c.appendArrays(b, r.Arrays)
	}
	if r.DeadlineMS != 0 {
		b = append(b, `,"deadline_ms":`...)
		b = strconv.AppendInt(b, r.DeadlineMS, 10)
	}
	return append(b, '}')
}

func (c *codec) appendRunResponse(b []byte, r *RunResponse) []byte {
	b = append(b, `{"live_outs":`...)
	b = c.appendInt32Map(b, r.LiveOuts)
	if len(r.Arrays) > 0 {
		b = append(b, `,"arrays":`...)
		b = c.appendArrays(b, r.Arrays)
	}
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, r.Cycles, 10)
	b = append(b, `,"on_cgra":`...)
	b = strconv.AppendBool(b, r.OnCGRA)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.Batched {
		b = append(b, `,"batched":true`...)
	}
	if r.BatchLanes != 0 {
		b = append(b, `,"batch_lanes":`...)
		b = strconv.AppendInt(b, int64(r.BatchLanes), 10)
	}
	if r.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, r.TraceID)
	}
	return append(b, '}')
}

// sortedKeys fills the codec's key buffer with m's keys in order; the
// caller clears it when done.
func sortedKeys[V any](c *codec, m map[string]V) []string {
	keys := c.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.keys = keys
	return keys
}

func (c *codec) appendInt32Map(b []byte, m map[string]int32) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	for i, k := range sortedKeys(c, m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(m[k]), 10)
	}
	clear(c.keys)
	return append(b, '}')
}

func (c *codec) appendArrays(b []byte, m map[string][]int32) []byte {
	b = append(b, '{')
	for i, k := range sortedKeys(c, m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		a := m[k]
		if a == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, v := range a {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	clear(c.keys)
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// appendString writes s as encoding/json does with HTML escaping on (its
// default): quote, backslash, control bytes, <, > and & escaped, U+2028
// and U+2029 escaped, each byte of invalid UTF-8 written as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ---- decoding ----

func (c *codec) decodeRunRequest(data []byte, r *RunRequest) error {
	return c.decode(data, func(key []byte) error {
		switch {
		case fieldIs(key, "kernel"):
			return c.stringField(&r.Kernel, true)
		case fieldIs(key, "args"):
			return c.int32Map(&r.Args)
		case fieldIs(key, "arrays"):
			return c.arrays(&r.Arrays)
		case fieldIs(key, "deadline_ms"):
			return intField(c, &r.DeadlineMS, 64)
		}
		return c.skip(2)
	})
}

func (c *codec) decodeRunResponse(data []byte, r *RunResponse) error {
	return c.decode(data, func(key []byte) error {
		switch {
		case fieldIs(key, "live_outs"):
			return c.int32Map(&r.LiveOuts)
		case fieldIs(key, "arrays"):
			return c.arrays(&r.Arrays)
		case fieldIs(key, "cycles"):
			return intField(c, &r.Cycles, 64)
		case fieldIs(key, "on_cgra"):
			return c.boolField(&r.OnCGRA)
		case fieldIs(key, "degraded"):
			return c.boolField(&r.Degraded)
		case fieldIs(key, "batched"):
			return c.boolField(&r.Batched)
		case fieldIs(key, "batch_lanes"):
			return intField(c, &r.BatchLanes, strconv.IntSize)
		case fieldIs(key, "trace_id"):
			return c.stringField(&r.TraceID, false)
		}
		return c.skip(2)
	})
}

// decode reads the first value of data: an object, whose members field
// decodes one by one, or null, which changes nothing. The object is
// nesting level 1, so a container as a member's value opens level 2.
func (c *codec) decode(data []byte, field func(key []byte) error) error {
	c.data, c.off = data, 0
	c.space()
	if c.off == len(c.data) {
		return io.EOF
	}
	switch c.data[c.off] {
	case 'n':
		return c.literal("null")
	case '{':
		return c.object(1, field)
	}
	return c.mismatch("a run body")
}

// fieldIs matches a key to a field name as encoding/json does: under
// Unicode case folding, by which the Kelvin sign and the long s also match
// k and s.
func fieldIs(key []byte, name string) bool {
	if len(key) == len(name) {
		i := 0
		for ; i < len(key); i++ {
			b, n := key[i], name[i]
			if b != n && (n < 'a' || n > 'z' || b != n-('a'-'A')) {
				break
			}
		}
		if i == len(key) {
			return true
		}
	}
	for _, b := range key {
		if b >= utf8.RuneSelf {
			return strings.EqualFold(string(key), name)
		}
	}
	return false
}

func (c *codec) space() {
	for c.off < len(c.data) {
		switch c.data[c.off] {
		case ' ', '\t', '\n', '\r':
			c.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the input.
func (c *codec) peek() byte {
	if c.off < len(c.data) {
		return c.data[c.off]
	}
	return 0
}

// syntax is the error for the byte at the cursor.
func (c *codec) syntax() error {
	if c.off >= len(c.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", c.data[c.off], c.off)
}

// mismatch refuses the value at the cursor for a target of another type.
func (c *codec) mismatch(target string) error {
	var kind string
	switch c.peek() {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		kind = "number"
	default:
		return c.syntax()
	}
	return fmt.Errorf("cannot decode %s at offset %d into %s", kind, c.off, target)
}

func (c *codec) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if c.off >= len(c.data) {
			return io.ErrUnexpectedEOF
		}
		if c.data[c.off] != lit[i] {
			return c.syntax()
		}
		c.off++
	}
	return nil
}

// object reads the object at the cursor, which opens nesting level depth,
// calling member with the cursor on each member's value.
func (c *codec) object(depth int, member func(key []byte) error) error {
	if depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	c.off++
	c.space()
	if c.peek() == '}' {
		c.off++
		return nil
	}
	for {
		if c.peek() != '"' {
			return c.syntax()
		}
		key, err := c.text()
		if err != nil {
			return err
		}
		c.space()
		if c.peek() != ':' {
			return c.syntax()
		}
		c.off++
		c.space()
		if err := member(key); err != nil {
			return err
		}
		c.space()
		switch c.peek() {
		case ',':
			c.off++
			c.space()
		case '}':
			c.off++
			return nil
		default:
			return c.syntax()
		}
	}
}

// array reads the array at the cursor, which opens nesting level depth,
// calling elem with the cursor on each element.
func (c *codec) array(depth int, elem func() error) error {
	if depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	c.off++
	c.space()
	if c.peek() == ']' {
		c.off++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		c.space()
		switch c.peek() {
		case ',':
			c.off++
			c.space()
		case ']':
			c.off++
			return nil
		default:
			return c.syntax()
		}
	}
}

// scanString moves the cursor past the string it is on, checking its
// escapes and refusing raw control bytes. plain reports a string without
// escapes and in valid UTF-8, whose bytes are its value.
func (c *codec) scanString() (raw []byte, plain bool, err error) {
	start := c.off
	escaped, ascii := false, true
	for i := start + 1; i < len(c.data); i++ {
		switch b := c.data[i]; {
		case b == '"':
			c.off = i + 1
			raw = c.data[start:c.off]
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case b == '\\':
			escaped = true
			i++
			if i == len(c.data) {
				return nil, false, io.ErrUnexpectedEOF
			}
			switch c.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					i++
					if i == len(c.data) {
						return nil, false, io.ErrUnexpectedEOF
					}
					if !isHex(c.data[i]) {
						c.off = i
						return nil, false, c.syntax()
					}
				}
			default:
				c.off = i
				return nil, false, c.syntax()
			}
		case b < ' ':
			c.off = i
			return nil, false, c.syntax()
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

func isHex(b byte) bool {
	return '0' <= b && b <= '9' || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

// text reads the string at the cursor and returns its value: the input's
// own bytes for a plain string (valid only until the codec is reused),
// else a fresh unescaped copy. The rare escaped or invalid-UTF-8 string is
// unquoted by encoding/json itself.
func (c *codec) text() ([]byte, error) {
	raw, plain, err := c.scanString()
	if err != nil {
		return nil, err
	}
	if plain {
		return raw[1 : len(raw)-1 : len(raw)-1], nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// name returns key as a string, interned.
func (c *codec) name(key []byte) string {
	if s, ok := c.names[string(key)]; ok {
		return s
	}
	if len(c.names) >= maxNames {
		clear(c.names)
	}
	s := string(key)
	c.names[s] = s
	return s
}

// scanNumber moves past the number at the cursor. An integer whose
// magnitude u fits in 64 bits comes back with fits set.
func (c *codec) scanNumber() (u uint64, neg, fits bool, err error) {
	neg = c.peek() == '-'
	if neg {
		c.off++
	}
	fits = true
	switch b := c.peek(); {
	case b == '0':
		c.off++
	case '1' <= b && b <= '9':
		for ; c.off < len(c.data) && '0' <= c.data[c.off] && c.data[c.off] <= '9'; c.off++ {
			d := uint64(c.data[c.off] - '0')
			if u > (1<<64-1-d)/10 {
				fits = false
			}
			u = u*10 + d
		}
	default:
		return 0, false, false, c.syntax()
	}
	if c.peek() == '.' {
		fits = false
		c.off++
		if err := c.digits(); err != nil {
			return 0, false, false, err
		}
	}
	if b := c.peek(); b == 'e' || b == 'E' {
		fits = false
		c.off++
		if b := c.peek(); b == '+' || b == '-' {
			c.off++
		}
		if err := c.digits(); err != nil {
			return 0, false, false, err
		}
	}
	return u, neg, fits, nil
}

// number reads the number at the cursor as a bits-bit integer. A fraction,
// an exponent or an integer out of range is well-formed, but refused.
func (c *codec) number(bits int) (int64, error) {
	start := c.off
	u, neg, fits, err := c.scanNumber()
	if err != nil {
		return 0, err
	}
	limit := uint64(1) << (bits - 1)
	if !fits || u > limit || u == limit && !neg {
		return 0, fmt.Errorf("cannot decode number %s at offset %d into int%d", c.data[start:c.off], start, bits)
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// digits moves past one or more decimal digits.
func (c *codec) digits() error {
	start := c.off
	for c.off < len(c.data) && '0' <= c.data[c.off] && c.data[c.off] <= '9' {
		c.off++
	}
	if c.off == start {
		return c.syntax()
	}
	return nil
}

// integer reads an integer or null (as 0, ok false).
func (c *codec) integer(bits int) (v int64, ok bool, err error) {
	switch c.peek() {
	case 'n':
		return 0, false, c.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		v, err := c.number(bits)
		return v, err == nil, err
	}
	return 0, false, c.mismatch("an integer")
}

// intField reads a bits-bit integer into *p, or a null that leaves it
// alone.
func intField[T int | int64](c *codec, p *T, bits int) error {
	v, ok, err := c.integer(bits)
	if ok {
		*p = T(v)
	}
	return err
}

func (c *codec) boolField(p *bool) error {
	switch c.peek() {
	case 'n':
		return c.literal("null")
	case 't':
		*p = true
		return c.literal("true")
	case 'f':
		*p = false
		return c.literal("false")
	}
	return c.mismatch("a bool")
}

// stringField reads a string into *p (interned when intern is set), or a
// null that leaves it alone.
func (c *codec) stringField(p *string, intern bool) error {
	switch c.peek() {
	case 'n':
		return c.literal("null")
	case '"':
		s, err := c.text()
		if err != nil {
			return err
		}
		if intern {
			*p = c.name(s)
		} else {
			*p = string(s)
		}
		return nil
	}
	return c.mismatch("a string")
}

// int32Map reads an object of int32s into *m, allocating it if nil; null
// sets it nil.
func (c *codec) int32Map(m *map[string]int32) error {
	switch c.peek() {
	case 'n':
		*m = nil
		return c.literal("null")
	case '{':
	default:
		return c.mismatch("a map of int32")
	}
	if *m == nil {
		*m = make(map[string]int32)
	}
	return c.object(2, func(key []byte) error {
		k := c.name(key)
		v, _, err := c.integer(32)
		(*m)[k] = int32(v)
		return err
	})
}

// arrays reads an object of int32 arrays into *m, allocating it if nil;
// null sets it nil. Each array is a fresh slice of its exact length.
func (c *codec) arrays(m *map[string][]int32) error {
	switch c.peek() {
	case 'n':
		*m = nil
		return c.literal("null")
	case '{':
	default:
		return c.mismatch("a map of int32 arrays")
	}
	if *m == nil {
		*m = make(map[string][]int32)
	}
	return c.object(2, func(key []byte) error {
		k := c.name(key)
		switch c.peek() {
		case 'n':
			(*m)[k] = nil
			return c.literal("null")
		case '[':
		default:
			return c.mismatch("an int32 array")
		}
		c.ints = c.ints[:0]
		err := c.array(3, func() error {
			v, _, err := c.integer(32)
			c.ints = append(c.ints, int32(v))
			return err
		})
		(*m)[k] = append(make([]int32, 0, len(c.ints)), c.ints...)
		return err
	})
}

// skip moves past the value at the cursor, checking its syntax; a
// container there opens nesting level depth.
func (c *codec) skip(depth int) error {
	switch c.peek() {
	case '{':
		return c.object(depth, func([]byte) error { return c.skip(depth + 1) })
	case '[':
		return c.array(depth, func() error { return c.skip(depth + 1) })
	case '"':
		_, _, err := c.scanString()
		return err
	case 't':
		return c.literal("true")
	case 'f':
		return c.literal("false")
	case 'n':
		return c.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, _, _, err := c.scanNumber()
		return err
	}
	return c.syntax()
}
