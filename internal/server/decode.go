package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The body of POST /v1/trajectories is decoded in one pass by a parser
// written for the IngestRequest schema, not by encoding/json's
// reflection. Its contract is that of
//
//	json.NewDecoder(body).Decode(&req)
//
// into a zero IngestRequest: it accepts exactly the bodies that call
// accepts, they decode to the same value, and only the error text
// differs. FuzzDecodeIngest holds it to that contract with
// encoding/json as the oracle. That is why the wire types have no
// UnmarshalJSON method: the oracle, and the serve-path benchmark's
// model, would then run this parser too and check nothing. The rules
// it reproduces (DESIGN.md §16):
//
//   - Only the first JSON value is read, and the bytes after it are
//     ignored. It must be an object or null.
//   - A member name selects a field exactly, or after unescaping under
//     encoding/json's case folding. Other members are skipped, but must
//     be well-formed.
//   - A repeated member decodes into the value already there. null sets
//     a slice to nil and leaves a number or an object as it is.
//   - int32 fields take only integer literals in range; float64 fields
//     go through strconv.ParseFloat, which rejects out-of-range values.
//   - Containers nest at most maxNesting deep.

const (
	// maxNesting is encoding/json's limit on nested arrays and objects.
	maxNesting = 10000
	// maxSizeHint caps the buffer a declared Content-Length presizes; a
	// longer body grows it as it arrives.
	maxSizeHint = 1 << 20
)

// The JSON names of the wire types' fields, in lower case.
var (
	requestFields    = []string{"trajectories"}
	trajectoryFields = []string{"trid", "points"}
	pointFields      = []string{"sid", "x", "y", "t"}
)

// decodeIngest reads body to EOF and decodes its first JSON value into
// an IngestRequest. sizeHint is the body's declared length, or -1 when
// it is unknown.
func decodeIngest(body io.Reader, sizeHint int64) (IngestRequest, error) {
	var buf bytes.Buffer
	if sizeHint > 0 {
		buf.Grow(int(min(sizeHint, maxSizeHint)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(body); err != nil {
		return IngestRequest{}, err
	}
	d := ingestDecoder{data: buf.Bytes()}
	var req IngestRequest
	if err := d.request(&req); err != nil {
		return IngestRequest{}, err
	}
	return req, nil
}

// ingestDecoder parses one body held in memory.
type ingestDecoder struct {
	data []byte
	pos  int

	name []byte // an unescaped member name
}

func (d *ingestDecoder) request(req *IngestRequest) error {
	return d.object(1, requestFields, func(int) error {
		return decodeArray(d, &req.Trajectories, d.trajectory)
	})
}

func (d *ingestDecoder) trajectory(t *TrajectoryDTO) error {
	return d.object(3, trajectoryFields, func(f int) error {
		if f == 0 {
			return d.int32Value(&t.ID)
		}
		return decodeArray(d, &t.Points, d.point)
	})
}

func (d *ingestDecoder) point(p *PointDTO) error {
	return d.object(5, pointFields, func(f int) error {
		switch f {
		case 0:
			return d.int32Value(&p.Seg)
		case 1:
			return d.float64Value(&p.X)
		case 2:
			return d.float64Value(&p.Y)
		}
		return d.float64Value(&p.Time)
	})
}

// object decodes the JSON object or null at d.pos. For each member whose
// name selects one of fields it calls member with that field's index,
// and it skips the value of every other member. null leaves the target
// as it is. depth is the object's own nesting level.
func (d *ingestDecoder) object(depth int, fields []string, member func(field int) error) error {
	d.skipSpace()
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		d.pos++
	default:
		return d.mismatch("object")
	}
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		name, err := d.memberName()
		if err != nil {
			return err
		}
		if f := d.field(name, fields); f >= 0 {
			err = member(f)
		} else {
			err = d.skipValue(depth)
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// decodeArray decodes the JSON array or null at d.pos into *s, calling
// elem to decode each element in place. It follows encoding/json's
// slice rules: null sets *s to nil and [] to an empty non-nil slice. An
// array re-slices *s within its capacity without zeroing, so it decodes
// into the elements an earlier, longer array left behind, and appends
// zero elements beyond.
func decodeArray[T any](d *ingestDecoder, s *[]T, elem func(*T) error) error {
	d.skipSpace()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*s = nil
		return nil
	case '[':
		d.pos++
	default:
		return d.mismatch("array")
	}
	out := *s
	var zero T
	n := 0
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
	} else {
		for {
			switch {
			case n < len(out):
			case n < cap(out):
				out = out[:n+1]
			default:
				out = append(out, zero)
			}
			if err := elem(&out[n]); err != nil {
				return err
			}
			n++
			d.skipSpace()
			if d.peek() == ']' {
				d.pos++
				break
			}
			if d.peek() != ',' {
				return d.unexpected("after array element")
			}
			d.pos++
		}
	}
	if n == 0 {
		*s = []T{}
	} else {
		*s = out[:n]
	}
	return nil
}

// int32Value decodes the JSON number or null at d.pos into *v. Like
// encoding/json it takes only an integer literal in int32 range, so 1.0
// and 1e2 are rejected; null leaves *v as it is.
func (d *ingestDecoder) int32Value(v *int32) error {
	lit, err := d.numberOrNull("int32")
	if lit == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 32)
	if err != nil {
		return d.numberMismatch(lit, "int32")
	}
	*v = int32(n)
	return nil
}

// float64Value decodes the JSON number or null at d.pos into *v through
// strconv.ParseFloat, as encoding/json does: 1e400 is rejected and -0
// stays -0. null leaves *v as it is.
func (d *ingestDecoder) float64Value(v *float64) error {
	lit, err := d.numberOrNull("float64")
	if lit == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.numberMismatch(lit, "float64")
	}
	*v = f
	return nil
}

// numberOrNull consumes the number or null at d.pos and returns the
// number's text, or nil for null. Any other value is a mismatch with
// the target type into.
func (d *ingestDecoder) numberOrNull(into string) ([]byte, error) {
	d.skipSpace()
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return nil, d.mismatch(into)
}

// field returns the index of the field in fields that member name raw
// selects, or -1. raw is the name as it stands in the body, escapes
// intact. encoding/json looks a name up exactly first, then by its
// folded form.
func (d *ingestDecoder) field(raw []byte, fields []string) int {
	for i, f := range fields {
		if string(raw) == f {
			return i
		}
	}
	name := raw
	if bytes.IndexByte(raw, '\\') >= 0 {
		d.name = appendUnquoted(d.name[:0], raw)
		name = d.name
	}
	for i, f := range fields {
		if foldEqual(name, f) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether name folds to the same string as field, a
// lower-case ASCII name, under encoding/json's foldName: ASCII letters
// fold to upper case, and every other rune, invalid UTF-8 included, to
// the smallest rune of its Unicode simple-fold orbit. So "TRID" and
// "pointſ" (U+017F) select trid and points.
func foldEqual(name []byte, field string) bool {
	j := 0
	for i := 0; i < len(name); j++ {
		if j == len(field) {
			return false
		}
		var r rune
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			r = rune(c)
			i++
		} else {
			var n int
			r, n = utf8.DecodeRune(name[i:])
			r = foldRune(r)
			i += n
		}
		if r != rune(field[j]-('a'-'A')) {
			return false
		}
	}
	return j == len(field)
}

// foldRune returns the smallest rune of r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// appendUnquoted appends the unescaped form of s, the validated
// contents of a JSON string, the way encoding/json unquotes a member
// name: a \u escape of a lone surrogate becomes U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			dst = append(dst, s[i])
			i++
			continue
		}
		switch e := s[i+1]; e {
		case 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(s[i+2:])); pair != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, pair)
						i += 6
						continue
					}
				}
				r = unicode.ReplacementChar
			}
			dst = utf8.AppendRune(dst, r)
		case 'b':
			dst, i = append(dst, '\b'), i+2
		case 'f':
			dst, i = append(dst, '\f'), i+2
		case 'n':
			dst, i = append(dst, '\n'), i+2
		case 'r':
			dst, i = append(dst, '\r'), i+2
		case 't':
			dst, i = append(dst, '\t'), i+2
		default: // '"', '\\', '/'
			dst, i = append(dst, e), i+2
		}
	}
	return dst
}

// hex4 decodes four validated hex digits, or returns -1 if s holds
// fewer or any is not one.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipValue skips the well-formed JSON value at d.pos, which depth
// containers enclose. It walks nested containers with a stack of their
// kinds, not by recursion.
func (d *ingestDecoder) skipValue(depth int) error {
	var stack [64]byte
	open := stack[:0]
	for {
		// A value starts here.
		d.skipSpace()
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(open) >= maxNesting {
				return fmt.Errorf("nesting exceeds %d levels at offset %d", maxNesting, d.pos)
			}
			d.pos++
			d.skipSpace()
			if d.peek() == closer(c) {
				d.pos++
				break
			}
			open = append(open, c)
			if c == '{' {
				if _, err := d.memberName(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if c != '-' && !isDigit(c) {
				return d.unexpected("looking for beginning of value")
			}
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close the containers it completes, up to one
		// that continues with another element or member.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			d.skipSpace()
			if d.peek() == ',' {
				d.pos++
				if top == '{' {
					if _, err := d.memberName(); err != nil {
						return err
					}
				}
				break
			}
			if d.peek() != closer(top) {
				return d.unexpected("after container element")
			}
			d.pos++
			open = open[:len(open)-1]
		}
	}
}

func closer(open byte) byte {
	if open == '{' {
		return '}'
	}
	return ']'
}

// memberName consumes an object member's name and the colon after it,
// and returns the name with escapes intact.
func (d *ingestDecoder) memberName() ([]byte, error) {
	d.skipSpace()
	if d.peek() != '"' {
		return nil, d.unexpected("looking for beginning of object key string")
	}
	name, err := d.str()
	if err != nil {
		return nil, err
	}
	d.skipSpace()
	if d.peek() != ':' {
		return nil, d.unexpected("after object key")
	}
	d.pos++
	return name, nil
}

// str consumes the JSON string at d.pos and returns its contents, escapes
// intact. Like encoding/json's scanner it rejects bytes below 0x20 and
// escapes JSON does not define, and accepts invalid UTF-8 and lone
// surrogate escapes.
func (d *ingestDecoder) str() ([]byte, error) {
	start := d.pos + 1
	for d.pos = start; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c < 0x20:
			return nil, d.unexpected("in string literal")
		case c == '\\':
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					d.pos++
					if !isHex(d.peek()) {
						return nil, d.unexpected("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, d.unexpected("in string escape code")
			}
		}
	}
	return nil, d.unexpected("in string literal")
}

// number consumes the JSON number at d.pos and returns its text.
func (d *ingestDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.unexpected("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !isDigit(d.peek()) {
			return nil, d.unexpected("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !isDigit(d.peek()) {
			return nil, d.unexpected("in exponent of numeric literal")
		}
		d.digits()
	}
	return d.data[start:d.pos], nil
}

func (d *ingestDecoder) digits() {
	for isDigit(d.peek()) {
		d.pos++
	}
}

// literal consumes lit, one of true, false and null.
func (d *ingestDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.unexpected("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

func (d *ingestDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the body; a 0
// byte is valid nowhere in JSON outside a string.
func (d *ingestDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// unexpected reports a syntax error at d.pos.
func (d *ingestDecoder) unexpected(context string) error {
	if d.pos >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], context, d.pos)
}

// mismatch reports a value at d.pos that the target type into cannot
// hold, or a syntax error if no value starts there.
func (d *ingestDecoder) mismatch(into string) error {
	var kind string
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return d.unexpected("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", kind, into, d.pos)
}

func (d *ingestDecoder) numberMismatch(lit []byte, into string) error {
	return fmt.Errorf("cannot decode number %s into %s at offset %d", lit, into, d.pos-len(lit))
}
