package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sync"
	"unicode/utf8"
)

// A /v1/dehin body is decoded in one pass over its bytes, without
// reflection, by decodeDehin. The pass handles the subset of JSON that
// every in-repo client sends (json.Marshal output of the request's
// fields, keys in any order, any whitespace) and counts entities and
// links as it reads; it stops storing past the snippet limits, so an
// oversized body costs a scan, not its allocations. Everything else - a
// key that is not exactly a field's name, a duplicate key, a null other
// than for entities, links or attrs, a number that is not an in-range
// integer literal, a string with an escape, a syntax error - goes to
// encoding/json on the same bytes, which is also the only source of error
// texts. FuzzDecodeDehin holds the pass to encoding/json's answers.

// maxPooledBody bounds the body buffers kept for reuse: one large post
// must not pin its buffer. The largest snippet serve_mixed posts is
// about 23 KB. A new buffer starts at 8 KiB, above the median of 4.9 KB.
const maxPooledBody = 64 << 10

var bodyBufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 8<<10)) }}

// readDehin reads a /v1/dehin body and decodes it, returning the request
// and its entity and link counts. The counts equal len(req.Entities) and
// len(req.Links) unless they exceed maxEntities or maxLinks, in which case
// req holds only the first maxEntities entities and maxLinks links. A
// body the pass does not take, or one whose read fails, is decoded by
// encoding/json from the same stream it would have read directly, so the
// error is encoding/json's.
//
// The buffer grows only as bytes arrive, never from the length a client
// declares: a client that declares 1 MiB and stalls must not hold 1 MiB.
func readDehin(body io.Reader, maxEntities, maxLinks int) (dehinRequest, int, int, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(body); err != nil {
		// Over maxBodyBytes or cut off: the decoder sees what was read,
		// then the reader's error, as if it had read the body itself.
		return decodeJSON(io.MultiReader(bytes.NewReader(buf.Bytes()), body))
	}
	if req, entities, links, ok := decodeDehin(buf.Bytes(), maxEntities, maxLinks); ok {
		return req, entities, links, nil
	}
	return decodeJSON(bytes.NewReader(buf.Bytes()))
}

// decodeJSON decodes a body with encoding/json, as handleDehin always
// did, for the bodies decodeDehin does not take.
func decodeJSON(r io.Reader) (dehinRequest, int, int, error) {
	var req dehinRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, len(req.Entities), len(req.Links), err
}

// dehinDecoder is the state of one decodeDehin pass. The scratch slices
// are reused across passes through decoders; decodeDehin copies what it
// keeps into exactly sized slices, so a request never shares them.
type dehinDecoder struct {
	buf []byte
	pos int

	maxEntities, maxLinks int
	nEntities, nLinks     int // counted, stored or not
	haveEntities          bool
	haveLinks             bool
	target                int

	ents  []entityScratch
	links []dehinLink
	attrs []int64  // every stored entity's attrs, back to back
	names []string // this request's interned type names
}

// entityScratch is a stored entity whose Attrs are attrs[lo:hi] of the
// decoder, or nil when lo < 0.
type entityScratch struct {
	e      dehinEntity
	lo, hi int
}

const (
	// maxScratch bounds the scratch slices a pooled decoder keeps.
	maxScratch = 4096
	// maxInterned bounds the type names one request interns, so that
	// looking one up stays a short scan: a served schema has a handful.
	maxInterned = 16
)

// decoders hands out decoders whose scratch a median snippet (56 entities
// and 57 links) fits from the start, so that a decoder the pool makes
// afresh does not grow its slices one append at a time.
var decoders = sync.Pool{New: func() any {
	return &dehinDecoder{
		ents:  make([]entityScratch, 0, 64),
		links: make([]dehinLink, 0, 64),
		attrs: make([]int64, 0, 256),
		names: make([]string, 0, maxInterned),
	}
}}

// decodeDehin decodes the first JSON value of body as encoding/json's
// Decoder.Decode would decode it into a dehinRequest, ignoring any bytes
// after it. It counts every entity and link but stores only the first
// maxEntities and maxLinks of them. ok is false when the body is invalid,
// does not fit a dehinRequest, or is outside the subset the pass
// reproduces exactly; the caller then decodes it with encoding/json.
func decodeDehin(body []byte, maxEntities, maxLinks int) (req dehinRequest, entities, links int, ok bool) {
	d := decoders.Get().(*dehinDecoder)
	defer d.release()
	return d.decode(body, maxEntities, maxLinks)
}

// decode is decodeDehin on d, whose scratch slices it reuses.
func (d *dehinDecoder) decode(body []byte, maxEntities, maxLinks int) (req dehinRequest, entities, links int, ok bool) {
	*d = dehinDecoder{
		buf: body, maxEntities: maxEntities, maxLinks: maxLinks,
		ents: d.ents[:0], links: d.links[:0], attrs: d.attrs[:0], names: d.names[:0],
	}
	if !d.request() {
		return dehinRequest{}, 0, 0, false
	}
	return d.result(), d.nEntities, d.nLinks, true
}

// release returns d to the pool unless its scratch grew past maxScratch,
// dropping what the last request stored so the pool does not retain it.
func (d *dehinDecoder) release() {
	clear(d.ents)
	clear(d.links)
	clear(d.names)
	d.buf = nil
	if cap(d.ents) <= maxScratch && cap(d.links) <= maxScratch && cap(d.attrs) <= maxScratch {
		decoders.Put(d)
	}
}

// result copies the stored entities and links into the request: one
// slice for the entities, one for the links and one backing array that
// every entity's Attrs is a sub-slice of, capped at its own length.
func (d *dehinDecoder) result() dehinRequest {
	req := dehinRequest{Target: d.target}
	if d.haveEntities {
		attrs := make([]int64, len(d.attrs))
		copy(attrs, d.attrs)
		req.Entities = make([]dehinEntity, len(d.ents))
		for i, s := range d.ents {
			req.Entities[i] = s.e
			if s.lo >= 0 {
				req.Entities[i].Attrs = attrs[s.lo:s.hi:s.hi]
			}
		}
	}
	if d.haveLinks {
		req.Links = make([]dehinLink, len(d.links))
		copy(req.Links, d.links)
	}
	return req
}

// request decodes the top-level object.
func (d *dehinDecoder) request() bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "target":
			return once(&seen, 1) && d.intField(&d.target, math.MinInt, math.MaxInt)
		case "entities":
			return once(&seen, 2) && d.array(&d.haveEntities, d.entity)
		case "links":
			return once(&seen, 4) && d.array(&d.haveLinks, d.link)
		}
		return false
	})
}

// object decodes an object whose keys name struct fields, calling member
// with each key and the decoder at its value. member refuses a key that
// is not exactly a field's name: encoding/json would match it to a field
// up to case, or step over its value.
func (d *dehinDecoder) object(member func(k []byte) bool) bool {
	more, ok := d.enter('{', '}')
	for ok && more {
		k, kok := d.key()
		if !kok || !member(k) {
			return false
		}
		more, ok = d.next('}')
	}
	return ok
}

// array decodes an array of entities or links, calling elem for each
// element; null leaves the field nil, as encoding/json does.
func (d *dehinDecoder) array(have *bool, elem func() bool) bool {
	if d.null() {
		return true
	}
	*have = true
	more, ok := d.enter('[', ']')
	for ok && more {
		if ok = elem(); ok {
			more, ok = d.next(']')
		}
	}
	return ok
}

// entity decodes one element of "entities", storing it while the count
// is under maxEntities.
func (d *dehinDecoder) entity() bool {
	store := d.nEntities < d.maxEntities
	d.nEntities++
	s := entityScratch{lo: -1}
	var seen uint8
	if !d.object(func(k []byte) bool {
		switch string(k) {
		case "type":
			return once(&seen, 1) && d.strField(&s.e.Type, store, true)
		case "label":
			return once(&seen, 2) && d.strField(&s.e.Label, store, false)
		case "attrs":
			return once(&seen, 4) && d.attrField(&s, store)
		case "sets":
			return once(&seen, 8) && d.setsField(&s.e.Sets, store)
		}
		return false
	}) {
		return false
	}
	if store {
		d.ents = append(d.ents, s)
	}
	return true
}

// link decodes one element of "links", storing it while the count is
// under maxLinks.
func (d *dehinDecoder) link() bool {
	store := d.nLinks < d.maxLinks
	d.nLinks++
	var l dehinLink
	var seen uint8
	if !d.object(func(k []byte) bool {
		switch string(k) {
		case "type":
			return once(&seen, 1) && d.strField(&l.Type, store, true)
		case "from":
			return once(&seen, 2) && d.intField(&l.From, math.MinInt, math.MaxInt)
		case "to":
			return once(&seen, 4) && d.intField(&l.To, math.MinInt, math.MaxInt)
		case "strength":
			var v int
			ok := once(&seen, 8) && d.intField(&v, math.MinInt32, math.MaxInt32)
			l.Strength = int32(v)
			return ok
		}
		return false
	}) {
		return false
	}
	if store {
		d.links = append(d.links, l)
	}
	return true
}

// attrField decodes an entity's attrs into the shared backing array;
// null leaves them nil, as encoding/json does.
func (d *dehinDecoder) attrField(s *entityScratch, store bool) bool {
	if d.null() {
		return true
	}
	lo := len(d.attrs)
	more, ok := d.enter('[', ']')
	for ok && more {
		v, vok := d.integer(math.MinInt64, math.MaxInt64)
		if !vok {
			return false
		}
		if store {
			d.attrs = append(d.attrs, v)
		}
		more, ok = d.next(']')
	}
	if ok && store {
		s.lo, s.hi = lo, len(d.attrs)
	}
	return ok
}

// setsField decodes an entity's set attributes. A repeated set name
// keeps its last value, as encoding/json's map decoding does.
func (d *dehinDecoder) setsField(sets *map[string][]int32, store bool) bool {
	if store {
		*sets = map[string][]int32{}
	}
	more, ok := d.enter('{', '}')
	for ok && more {
		name, sok := d.str()
		if !sok || !d.colon() {
			return false
		}
		vals := []int32{}
		vmore, vok := d.enter('[', ']')
		for vok && vmore {
			v, iok := d.integer(math.MinInt32, math.MaxInt32)
			if !iok {
				return false
			}
			if store {
				vals = append(vals, int32(v))
			}
			vmore, vok = d.next(']')
		}
		if !vok {
			return false
		}
		if store {
			(*sets)[string(name)] = vals
		}
		more, ok = d.next('}')
	}
	return ok
}

// strField decodes a string field. Type names are interned, since a
// snippet repeats a few of them.
func (d *dehinDecoder) strField(dst *string, store, intern bool) bool {
	s, ok := d.str()
	if ok && store {
		if intern {
			*dst = d.intern(s)
		} else {
			*dst = string(s)
		}
	}
	return ok
}

func (d *dehinDecoder) intern(b []byte) string {
	for _, s := range d.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names = append(d.names, s)
	}
	return s
}

// intField decodes an integer field of a Go type holding [lo, hi].
func (d *dehinDecoder) intField(dst *int, lo, hi int64) bool {
	v, ok := d.integer(lo, hi)
	*dst = int(v)
	return ok
}

// once marks a known key as seen, and refuses it the second time:
// encoding/json decodes a repeated key into what the first one stored.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// peek skips whitespace and returns the next byte, or 0 at the end
// (a byte that JSON allows only inside strings).
func (d *dehinDecoder) peek() byte {
	if d.pos < len(d.buf) && d.buf[d.pos] > ' ' {
		return d.buf[d.pos]
	}
	for i := d.pos; i < len(d.buf); i++ {
		switch c := d.buf[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.pos = i
			return c
		}
	}
	d.pos = len(d.buf)
	return 0
}

// enter consumes the opening byte of an object or array and reports
// whether a first member follows.
func (d *dehinDecoder) enter(open, close byte) (more, ok bool) {
	if d.peek() != open {
		return false, false
	}
	d.pos++
	if d.peek() == close {
		d.pos++
		return false, true
	}
	return true, true
}

// next consumes the separator after a member: a comma (more follow) or
// the closing byte.
func (d *dehinDecoder) next(close byte) (more, ok bool) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, true
	case close:
		d.pos++
		return false, true
	}
	return false, false
}

func (d *dehinDecoder) colon() bool {
	if d.peek() != ':' {
		return false
	}
	d.pos++
	return true
}

// key reads an object key and its colon. Only printable ASCII keys
// without escapes are taken: encoding/json also matches keys to fields
// through escapes and Unicode case folding ("\u0074ype", "lin\u212As").
func (d *dehinDecoder) key() ([]byte, bool) {
	k, ascii, ok := d.scanString()
	return k, ok && ascii && d.colon()
}

// str reads a string and returns its raw bytes. It takes only strings
// that encoding/json stores byte for byte: no escapes, valid UTF-8.
func (d *dehinDecoder) str() ([]byte, bool) {
	s, _, ok := d.scanString()
	return s, ok
}

// scanString is str, also reporting whether every byte of s is plainASCII.
func (d *dehinDecoder) scanString() (s []byte, ascii, ok bool) {
	if d.peek() != '"' {
		return nil, false, false
	}
	b, start := d.buf, d.pos+1
	i := start
	for i < len(b) && plainASCII[b[i]] {
		i++
	}
	end := i
	for ; end < len(b) && b[end] != '"'; end++ {
		if c := b[end]; c == '\\' || c < ' ' {
			return nil, false, false
		}
	}
	if end == len(b) || end > i && !utf8.Valid(b[i:end]) {
		return nil, false, false
	}
	d.pos = end + 1
	return b[start:end], end == i, true
}

// plainASCII marks the bytes a string holds as themselves: ASCII from
// the space up, other than the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// null consumes a null literal if one is next.
func (d *dehinDecoder) null() bool {
	if d.peek() != 'n' || !bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		return false
	}
	d.pos += len("null")
	return true
}

// integer reads an integer literal in [lo, hi]. encoding/json converts a
// number for an integer field with strconv.ParseInt, so a fraction, an
// exponent or an out-of-range value is a type error there, and not ok
// here.
func (d *dehinDecoder) integer(lo, hi int64) (int64, bool) {
	d.peek()
	b, i := d.buf, d.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	// Up to nineteen digits fit u; more are out of range of any field.
	n := i - start
	if n == 0 || n > 19 || n > 1 && b[start] == '0' {
		return 0, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false
	}
	var v int64
	switch {
	case neg && u <= 1<<63:
		v = int64(-u)
	case !neg && u <= math.MaxInt64:
		v = int64(u)
	default:
		return 0, false
	}
	if v < lo || v > hi {
		return 0, false
	}
	d.pos = i
	return v, true
}
